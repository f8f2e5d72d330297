// Package multicam extends Smokescreen from one camera to a fleet. The
// paper's system model (Section 1) has "a set of configurable networked
// cameras" feeding one query processor; this package answers aggregate
// queries over the union of several corpora, each degraded under its own
// intervention setting, with a combined error bound that stays sound.
//
// The combination is stratified estimation in the paper's interval style:
// camera i contributes a confidence interval [LB_i, UB_i] for its own mean
// at risk delta/K (union bound over the K cameras), the fleet mean lies in
// [sum w_i*LB_i, sum w_i*UB_i] with w_i = N_i/N, and the answer/bound pair
// follows the harmonic form of Theorem 3.1:
//
//	Y = 2*UB*LB/(UB+LB),  err_b = (UB-LB)/(UB+LB).
//
// AVG, SUM and COUNT combine this way; MAX/MIN rank errors do not compose
// across corpora and are rejected.
package multicam

import (
	"context"
	"fmt"

	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// Camera is one member of the fleet: a corpus, the model watching it, and
// the administrator-chosen intervention setting.
type Camera struct {
	Name    string
	Video   *scene.Video
	Model   *detect.Model
	Setting degrade.Setting
	// Correction repairs the camera's bound when its setting applies
	// non-random interventions; nil is allowed for random-only settings.
	Correction *estimate.Correction
}

// Fleet is a set of cameras answering queries together.
type Fleet struct {
	cameras []Camera
}

// New validates and assembles a fleet.
func New(cameras ...Camera) (*Fleet, error) {
	if len(cameras) == 0 {
		return nil, fmt.Errorf("multicam: at least one camera required")
	}
	seen := map[string]bool{}
	for i := range cameras {
		c := &cameras[i]
		if c.Name == "" {
			return nil, fmt.Errorf("multicam: camera %d has no name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("multicam: duplicate camera name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Video == nil || c.Model == nil {
			return nil, fmt.Errorf("multicam: camera %q missing video or model", c.Name)
		}
		if err := c.Setting.Validate(c.Model); err != nil {
			return nil, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		if !c.Setting.IsRandomOnly(c.Model) && c.Correction == nil {
			return nil, fmt.Errorf("multicam: camera %q applies non-random interventions but has no correction set", c.Name)
		}
	}
	return &Fleet{cameras: cameras}, nil
}

// Size returns the number of cameras.
func (f *Fleet) Size() int { return len(f.cameras) }

// TotalFrames returns N, the union population size.
func (f *Fleet) TotalFrames() int {
	total := 0
	for i := range f.cameras {
		total += f.cameras[i].Video.NumFrames()
	}
	return total
}

// CameraResult is one camera's contribution to a fleet answer.
type CameraResult struct {
	Name     string
	Estimate estimate.Estimate
	Weight   float64 // N_i / N
}

// Result is a fleet-wide query answer.
type Result struct {
	Estimate estimate.Estimate
	Cameras  []CameraResult
}

// QueryCtx answers the aggregate over the union of all cameras' corpora,
// each degraded under its own setting, at overall risk p.Delta. Only
// mean-type aggregates (AVG, SUM, COUNT) are supported; predicate
// transforms COUNT outputs exactly as in profile.Spec (nil means
// "contains at least one object"). Cancellation stops the per-camera
// estimation pipeline (including its detector work) and returns ctx's
// error with no partial result.
func (f *Fleet) QueryCtx(ctx context.Context, agg estimate.Agg, class scene.Class, predicate func(float64) float64, p estimate.Params, stream *stats.Stream) (*Result, error) {
	if agg.IsExtremum() || agg == estimate.VAR {
		return nil, fmt.Errorf("multicam: %v does not compose across cameras (rank and variance errors are corpus-local)", agg)
	}
	k := len(f.cameras)
	// Union bound: each camera runs at delta/K so the joint guarantee
	// holds at 1-delta.
	per := p
	per.Delta = p.Delta / float64(k)

	totalFrames := f.TotalFrames()
	var (
		results  []CameraResult
		ubSum    float64
		lbSum    float64
		anyLoose bool
	)
	// COUNT keeps its per-camera aggregate so the known indicator range
	// applies (constant all-match samples stay bounded); its values are
	// rescaled to the mean level for combination.
	perCameraAgg := estimate.AVG
	if agg == estimate.COUNT {
		perCameraAgg = estimate.COUNT
	}
	for i := range f.cameras {
		c := &f.cameras[i]
		spec := &profile.Spec{
			Video:     c.Video,
			Model:     c.Model,
			Class:     class,
			Agg:       perCameraAgg,
			Params:    per,
			Predicate: predicateFor(agg, predicate),
		}
		if !c.Model.CanDetect(class) {
			return nil, fmt.Errorf("multicam: camera %q model %s cannot detect %v", c.Name, c.Model.Name, class)
		}
		est, err := spec.EstimateSettingCtx(ctx, c.Setting, c.Correction, stream.Child(uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		weight := float64(c.Video.NumFrames()) / float64(totalFrames)
		results = append(results, CameraResult{Name: c.Name, Estimate: est, Weight: weight})

		// Reconstruct the camera's mean interval from the harmonic pair:
		// |Y| = (1+err)*LB = (1-err)*UB.
		if est.ErrBound >= 1 {
			anyLoose = true
			continue
		}
		meanValue := est.Value
		if perCameraAgg == estimate.COUNT {
			meanValue /= float64(c.Video.NumFrames())
		}
		lb := meanValue / (1 + est.ErrBound)
		ub := meanValue / (1 - est.ErrBound)
		lbSum += weight * lb
		ubSum += weight * ub
	}
	out := &Result{Cameras: results}
	n := 0
	for _, r := range results {
		n += r.Estimate.Sample
	}
	out.Estimate = estimate.Estimate{N: totalFrames, Sample: n}
	if anyLoose || ubSum <= 0 {
		// A camera with a degenerate interval leaves the fleet mean
		// unbounded below: report the conservative pair.
		out.Estimate.Value = 0
		out.Estimate.ErrBound = 1
	} else {
		out.Estimate.Value = 2 * ubSum * lbSum / (ubSum + lbSum)
		out.Estimate.ErrBound = (ubSum - lbSum) / (ubSum + lbSum)
	}
	if agg == estimate.SUM || agg == estimate.COUNT {
		out.Estimate.Value *= float64(totalFrames)
	}
	return out, nil
}

// predicateFor adapts the COUNT semantics: fleet queries run each camera
// at the AVG level over (possibly predicate-transformed) outputs.
func predicateFor(agg estimate.Agg, predicate func(float64) float64) func(float64) float64 {
	if agg != estimate.COUNT {
		return predicate
	}
	if predicate != nil {
		return predicate
	}
	return func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	}
}

// Audit checks a fleet estimate against the exact aggregate over every
// camera's non-degraded corpus, for tests and demos.
func (f *Fleet) Audit(agg estimate.Agg, class scene.Class, predicate func(float64) float64, e estimate.Estimate, p estimate.Params) (estimate.Audited, error) {
	if agg.IsExtremum() || agg == estimate.VAR {
		return estimate.Audited{}, fmt.Errorf("multicam: %v does not compose across cameras", agg)
	}
	var population []float64
	for i := range f.cameras {
		c := &f.cameras[i]
		spec := &profile.Spec{
			Video:     c.Video,
			Model:     c.Model,
			Class:     class,
			Agg:       estimate.AVG,
			Params:    p,
			Predicate: predicateFor(agg, predicate),
		}
		population = append(population, spec.TruePopulation()...)
	}
	return estimate.Audit(agg, e, population, p)
}
