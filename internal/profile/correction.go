package profile

import (
	"context"
	"fmt"

	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/stats"
)

// This file implements correction-set construction (paper Section 3.3.1).
// The correction set must be degraded as much as possible — for frame
// sampling that means as few frames as possible — while still giving a
// tight err_b(v). The paper's heuristic: grow the set by 1% of the corpus
// at a time, stop at the elbow where the bound stops improving by at least
// 2%, or at the administrator's size limit.

// CorrectionStep records one growth step of the construction, feeding the
// Figure 9 curves.
type CorrectionStep struct {
	Fraction float64 // correction set size / corpus size
	Size     int     // m
	ErrBound float64 // err_b(v) at this size
}

// ConstructionResult bundles the chosen correction set with the growth
// trace that led to it.
type ConstructionResult struct {
	Correction *estimate.Correction
	Steps      []CorrectionStep
	// Fraction is the chosen correction-set fraction m/N.
	Fraction float64
}

const (
	// growthStep is the per-iteration size increase: 1% of the corpus.
	growthStep = 0.01
	// elbowDelta stops growth once the bound improves by less than 2%.
	elbowDelta = 0.02
)

// ConstructCorrectionCtx builds a correction set for the spec by the
// paper's elbow heuristic. sizeLimit caps the correction fraction (the
// administrator's limit); pass 1 for no practical cap. The correction
// frames are sampled without replacement at the model's native resolution
// with no image removal — random interventions only. Growth reuses the
// already-sampled frames: each step extends the previous sample, so model
// outputs are computed once per frame.
//
// Construction is deliberately sequential and lazy: the elbow rule decides
// whether to grow the set from the previous step's bound, so each step is
// gated on its predecessor and there is no independent work to fan out.
// Each growth step checks ctx before triggering detector work, so
// cancelling a daemon job aborts construction mid-elbow.
func ConstructCorrectionCtx(ctx context.Context, spec *Spec, sizeLimit float64, stream *stats.Stream) (*ConstructionResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if sizeLimit <= 0 || sizeLimit > 1 {
		return nil, fmt.Errorf("profile: correction size limit %v out of (0,1]", sizeLimit)
	}
	n := spec.Video.NumFrames()
	perm := stream.Perm(n)

	var (
		result ConstructionResult
		prev   = -1.0
	)
	for step := 1; ; step++ {
		fraction := growthStep * float64(step)
		if fraction > sizeLimit {
			break
		}
		m := int(float64(n)*fraction + 0.5)
		if m < 1 {
			m = 1
		}
		if m > n {
			m = n
		}
		stopDetect := plan.DetectTimer()
		sample, err := spec.outputsAtCtx(ctx, perm[:m])
		stopDetect()
		if err != nil {
			return nil, err
		}
		corr, err := estimate.NewCorrection(spec.Agg, sample, n, spec.Params)
		if err != nil {
			return nil, err
		}
		bound := corr.Estimate.ErrBound
		result.Steps = append(result.Steps, CorrectionStep{Fraction: fraction, Size: m, ErrBound: bound})
		result.Correction = corr
		result.Fraction = fraction
		if prev >= 0 && prev-bound < elbowDelta {
			break
		}
		prev = bound
		if m == n {
			break
		}
	}
	if result.Correction == nil {
		return nil, fmt.Errorf("profile: size limit %v below the minimum growth step %v", sizeLimit, growthStep)
	}
	return &result, nil
}

// BuildCorrectionAt builds a correction set of an explicit size (used by
// the profile-similarity experiment, which fixes 500 frames).
func BuildCorrectionAt(spec *Spec, m int, stream *stats.Stream) (*estimate.Correction, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Video.NumFrames()
	if m < 1 || m > n {
		return nil, fmt.Errorf("profile: correction size %d out of [1,%d]", m, n)
	}
	idx := stream.SampleWithoutReplacement(n, m)
	sample, err := spec.outputsAtCtx(context.Background(), idx)
	if err != nil {
		return nil, err
	}
	return estimate.NewCorrection(spec.Agg, sample, n, spec.Params)
}
