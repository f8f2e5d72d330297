// Package profile implements the paper's profile-generation machinery
// (Sections 2.3 and 3.3): degradation-accuracy profiles (tradeoff curves),
// the degradation hypercube over (f, p, c) with 2D slices, correction-set
// construction with the 1%-growth / 2%-elbow heuristic, and fraction
// sweeps with early stopping and model-output reuse.
package profile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// Spec identifies the analytical query a profile is generated for: the
// paper's (D, F_model, F_A) triple plus estimator parameters.
type Spec struct {
	Video  *scene.Video
	Model  *detect.Model
	Class  scene.Class  // the class whose per-frame count F_model reports
	Agg    estimate.Agg // aggregate function F_A
	Params estimate.Params
	// Predicate transforms per-frame counts before aggregation. COUNT
	// queries use it to turn counts into indicator values; nil applies
	// the aggregate to the raw counts (with a contains-object default for
	// COUNT).
	Predicate func(float64) float64
}

// Validate reports an inconsistent specification.
func (s *Spec) Validate() error {
	if s.Video == nil || s.Model == nil {
		return fmt.Errorf("profile: spec requires a video and a model")
	}
	if !s.Model.CanDetect(s.Class) {
		return fmt.Errorf("profile: model %s cannot detect %v", s.Model.Name, s.Class)
	}
	return nil
}

// transform applies the spec's predicate (or the COUNT default) to a raw
// count.
func (s *Spec) transform(x float64) float64 {
	if s.Predicate != nil {
		return s.Predicate(x)
	}
	if s.Agg == estimate.COUNT {
		if x > 0 {
			return 1
		}
		return 0
	}
	return x
}

// TruePopulation returns the transformed per-frame outputs of the
// non-degraded video: the X_1..X_N series whose aggregate is the paper's
// ground truth.
func (s *Spec) TruePopulation() []float64 {
	// The only error Full can return is context cancellation, which a
	// Background root cannot produce; a failure here is a bug, not a
	// condition to degrade through.
	raw, err := outputs.Full(context.Background(), s.Video, s.Model, s.Class, s.Model.NativeInput)
	if err != nil {
		panic(fmt.Sprintf("profile: outputs.Full over a Background context failed: %v", err))
	}
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = s.transform(x)
	}
	return out
}

// Audit checks an estimate of this query against the non-degraded corpus
// (estimate.Audit over TruePopulation).
func (s *Spec) Audit(e estimate.Estimate) (estimate.Audited, error) {
	return estimate.Audit(s.Agg, e, s.TruePopulation(), s.Params)
}

// sampleValuesCtx materialises the transformed outputs for a degradation
// plan, reading (and lazily filling) the detector-output column store.
func (s *Spec) sampleValuesCtx(ctx context.Context, plan *degrade.Plan) ([]float64, error) {
	raw, err := degrade.SampleOutputsCtx(ctx, s.Video, s.Model, s.Class, plan)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = s.transform(x)
	}
	return out, nil
}

// outputsAtCtx returns the transformed outputs for specific frames at the
// model's native resolution, evaluating the detector lazily — correction
// sets only ever touch the frames they sample.
func (s *Spec) outputsAtCtx(ctx context.Context, frames []int) ([]float64, error) {
	raw, err := outputs.At(ctx, s.Video, s.Model, s.Class, s.Model.NativeInput, frames)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = s.transform(x)
	}
	return out, nil
}

// EstimateSettingCtx computes the approximate answer and error bound under
// one intervention setting (Problem 1 of the paper). Non-random settings
// require a correction set; passing nil for one returns an error because
// the uncorrected bound would be unsound. For random-only settings with a
// correction set, the tighter of the two bounds is used (Section 5.2.2).
// Detector work the estimate triggers aborts when ctx is done.
func (s *Spec) EstimateSettingCtx(ctx context.Context, setting degrade.Setting, corr *estimate.Correction, stream *stats.Stream) (estimate.Estimate, error) {
	if err := s.Validate(); err != nil {
		return estimate.Estimate{}, err
	}
	plan, err := degrade.ApplyCtx(ctx, s.Video, s.Model, setting, stream)
	if err != nil {
		return estimate.Estimate{}, err
	}
	return s.estimatePlan(ctx, plan, corr)
}

func (s *Spec) estimatePlan(ctx context.Context, plan *degrade.Plan, corr *estimate.Correction) (estimate.Estimate, error) {
	values, err := s.sampleValuesCtx(ctx, plan)
	if err != nil {
		return estimate.Estimate{}, err
	}
	est, err := estimate.Smokescreen(s.Agg, values, plan.Total, s.Params)
	if err != nil {
		return estimate.Estimate{}, err
	}
	randomOnly := plan.Setting.IsRandomOnly(s.Model)
	if corr == nil {
		if !randomOnly {
			return estimate.Estimate{}, fmt.Errorf(
				"profile: setting %v applies non-random interventions; a correction set is required for a sound bound", plan.Setting)
		}
		return est, nil
	}
	return corr.Repaired(s.Agg, est, s.Params, randomOnly)
}

// UncorrectedEstimate computes the estimate WITHOUT profile repair even
// for non-random settings. The bound may undershoot the true error; it
// exists for the Figure 6 comparison and for callers that knowingly accept
// unsound bounds.
func (s *Spec) UncorrectedEstimate(setting degrade.Setting, stream *stats.Stream) (estimate.Estimate, error) {
	if err := s.Validate(); err != nil {
		return estimate.Estimate{}, err
	}
	plan, err := degrade.ApplyCtx(context.Background(), s.Video, s.Model, setting, stream)
	if err != nil {
		return estimate.Estimate{}, err
	}
	values, err := s.sampleValuesCtx(context.Background(), plan)
	if err != nil {
		return estimate.Estimate{}, err
	}
	return estimate.Smokescreen(s.Agg, values, plan.Total, s.Params)
}

// Point is one (degradation, error-bound) pair of a profile.
type Point struct {
	Setting  degrade.Setting
	Estimate estimate.Estimate
	Repaired bool   // bound produced by profile repair
	Tier     string // ladder tier name, when the point is a ladder rung
}

// Profile is a tradeoff curve: error bounds across one axis of the
// intervention space, for a fixed query and corpus. Missing values in
// between points are interpolated by the administrator (or BoundAtFraction).
type Profile struct {
	VideoName string
	ModelName string
	Class     scene.Class
	Agg       estimate.Agg
	Points    []Point
}

// ErrOutOfRange reports a BoundAtFraction query the profile cannot
// answer: a fraction outside (0, 1] (or NaN), or an empty profile with no
// points to interpolate between. Callers distinguish it from other errors
// with errors.Is.
var ErrOutOfRange = errors.New("profile: fraction out of range")

// BoundAtFraction linearly interpolates the error bound at sample
// fraction f along a fraction-axis profile. Within (0, 1] but outside the
// profiled range the nearest endpoint is returned (the profile's own
// endpoints clamp); a fraction no Setting could carry — f <= 0, f > 1, or
// NaN — and an empty profile return an error wrapping ErrOutOfRange.
func (p *Profile) BoundAtFraction(f float64) (float64, error) {
	if math.IsNaN(f) || f <= 0 || f > 1 {
		return 0, fmt.Errorf("%w: f=%v not in (0,1]", ErrOutOfRange, f)
	}
	if len(p.Points) == 0 {
		return 0, fmt.Errorf("%w: empty profile", ErrOutOfRange)
	}
	pts := append([]Point(nil), p.Points...)
	sort.Slice(pts, func(a, b int) bool {
		return pts[a].Setting.SampleFraction < pts[b].Setting.SampleFraction
	})
	if f <= pts[0].Setting.SampleFraction {
		return pts[0].Estimate.ErrBound, nil
	}
	last := pts[len(pts)-1]
	if f >= last.Setting.SampleFraction {
		return last.Estimate.ErrBound, nil
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		if f <= hi.Setting.SampleFraction {
			span := hi.Setting.SampleFraction - lo.Setting.SampleFraction
			t := (f - lo.Setting.SampleFraction) / span
			return lo.Estimate.ErrBound + t*(hi.Estimate.ErrBound-lo.Estimate.ErrBound), nil
		}
	}
	return last.Estimate.ErrBound, nil
}

// ChooseFraction returns the most degraded (smallest) sample fraction
// whose bound does not exceed maxErr, implementing the administrator's
// "choosing a tradeoff" stage along the sampling axis. ok is false when no
// profiled fraction qualifies.
func (p *Profile) ChooseFraction(maxErr float64) (degrade.Setting, bool) {
	best := degrade.Setting{}
	found := false
	for _, pt := range p.Points {
		if pt.Estimate.ErrBound > maxErr {
			continue
		}
		if !found || pt.Setting.SampleFraction < best.SampleFraction {
			best = pt.Setting
			found = true
		}
	}
	return best, found
}
