package profile

import (
	"context"
	"fmt"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/stats"
)

// Adaptive execution: sample frames one at a time until the error bound
// reaches a target — the stopping-rule usage the empirical Bernstein
// stopping algorithm (the paper's EBGS baseline) was designed for, built
// here on the any-time Hoeffding-Serfling streaming estimator so that
// stopping adaptively keeps the 1-delta guarantee. Detection stays lazy:
// only the frames actually observed invoke the model, so an easy query
// stops after a few dozen frames.

// AdaptiveResult reports an adaptive run.
type AdaptiveResult struct {
	Estimate estimate.Estimate
	// Met reports whether the target was reached before the frame budget.
	Met bool
	// FramesUsed is the number of frames observed (and detected).
	FramesUsed int
}

// RunUntilCtx samples admissible frames without replacement, observing each
// through the spec's model at the setting's resolution, until the
// any-time error bound drops to targetErr or the frame budget
// (maxFraction of the corpus) is exhausted. Only mean-type aggregates are
// supported (the streaming estimator's constraint); non-random settings
// are rejected because an adaptively-stopped biased sample cannot be
// repaired soundly mid-stream. The per-batch detector work aborts when ctx
// is done, and no partial result is returned.
func RunUntilCtx(ctx context.Context, spec *Spec, setting degrade.Setting, targetErr, maxFraction float64, stream *stats.Stream) (*AdaptiveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if targetErr <= 0 || targetErr >= 1 {
		return nil, fmt.Errorf("profile: target error %v out of (0,1)", targetErr)
	}
	if maxFraction <= 0 || maxFraction > 1 {
		return nil, fmt.Errorf("profile: max fraction %v out of (0,1]", maxFraction)
	}
	if !setting.IsRandomOnly(spec.Model) {
		return nil, fmt.Errorf("profile: adaptive execution requires random-only interventions, got %v", setting)
	}
	if err := setting.Validate(spec.Model); err != nil {
		return nil, err
	}

	n := spec.Video.NumFrames()
	budget := int(float64(n) * maxFraction)
	if budget < 1 {
		budget = 1
	}
	est, err := estimate.NewStreamingEstimator(spec.Agg, n, spec.Params, true)
	if err != nil {
		return nil, err
	}

	admissible, err := degrade.AdmissibleFramesCtx(ctx, spec.Video, setting.Restricted)
	if err != nil {
		return nil, err
	}
	if budget > len(admissible) {
		budget = len(admissible)
	}
	perm := stream.Perm(len(admissible))
	resolution := setting.ResolveResolution(spec.Model)

	// Observe in small batches: detection parallelises across a batch
	// while the stopping check stays fine-grained.
	const batch = 16
	out := &AdaptiveResult{}
	for start := 0; start < budget; start += batch {
		end := start + batch
		if end > budget {
			end = budget
		}
		frames := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			frames = append(frames, admissible[perm[i]])
		}
		values, err := spec.outputsAtResolution(ctx, resolution, frames)
		if err != nil {
			return nil, err
		}
		for _, x := range values {
			out.Estimate = est.Observe(spec.transform(x))
			out.FramesUsed++
			if out.Estimate.ErrBound <= targetErr {
				out.Met = true
				return out, nil
			}
		}
	}
	return out, nil
}

// outputsAtResolution evaluates raw outputs for explicit frames at an
// explicit resolution (RunUntil streams at the setting's resolution, which
// for random-only settings is the model's native input).
func (s *Spec) outputsAtResolution(ctx context.Context, p int, frames []int) ([]float64, error) {
	plan := &degrade.Plan{Resolution: p, Sampled: frames, Total: s.Video.NumFrames()}
	return degrade.SampleOutputsCtx(ctx, s.Video, s.Model, s.Class, plan)
}
