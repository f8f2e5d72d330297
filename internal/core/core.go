// Package core assembles the Smokescreen prototype (paper Section 4): the
// video frame processor (simulated detectors over synthetic corpora), the
// analytical result and error bound estimator, and the correction set and
// intervention candidate designer — glued together behind the
// administration procedure of Section 3.1:
//
//  1. Profile generation: for a query, compute tight error bounds under
//     every intervention candidate, forming a degradation hypercube whose
//     2D slices the administrator examines.
//  2. Choosing a tradeoff: pick the most degraded setting whose bound
//     satisfies the public preferences, then execute the query under it.
package core

import (
	"context"
	"fmt"
	"time"

	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/stats"
)

// System is the Smokescreen prototype instance.
type System struct {
	seed uint64
	// correctionLimit caps the correction-set fraction (the administrator
	// limit from Section 3.3.1).
	correctionLimit float64
	// fractionStep is the sample-fraction candidate interval (1% in the
	// paper, Section 3.3.2).
	fractionStep float64
	// maxFraction bounds the largest candidate fraction during profile
	// generation; profiles flatten well before 1 in practice.
	maxFraction float64
	// earlyStopDelta enables the paper's early stopping during fraction
	// sweeps: a sweep stops once the bound improves by less than this
	// between consecutive fractions. Zero disables it.
	earlyStopDelta float64
	// parallelism bounds the worker goroutines used during profile
	// generation; 1 is sequential, 0 or negative means one per CPU.
	parallelism int
}

// Option configures a System.
type Option func(*System)

// WithSeed fixes the root randomness seed; the default is 1.
func WithSeed(seed uint64) Option {
	return func(s *System) { s.seed = seed }
}

// WithCorrectionLimit caps the correction-set size as a fraction of the
// corpus (default 0.2).
func WithCorrectionLimit(limit float64) Option {
	return func(s *System) { s.correctionLimit = limit }
}

// WithFractionCandidates sets the candidate sample-fraction step and
// maximum (defaults 0.01 and 0.2).
func WithFractionCandidates(step, max float64) Option {
	return func(s *System) { s.fractionStep, s.maxFraction = step, max }
}

// WithEarlyStop enables early stopping during profile generation
// (Section 3.3.2): each fraction sweep stops once the bound improves by
// less than delta between consecutive candidates, trading profile
// completeness for fewer model invocations.
func WithEarlyStop(delta float64) Option {
	return func(s *System) { s.earlyStopDelta = delta }
}

// WithParallelism bounds the worker goroutines used for profile
// generation (the hypercube grid and fraction sweeps). 1 — the default —
// is sequential; 0 or negative means one worker per CPU. Randomness is
// derived per grid cell from stats.Stream children, so profiles are
// bit-for-bit identical at any setting.
func WithParallelism(n int) Option {
	return func(s *System) { s.parallelism = n }
}

// New constructs a System with the paper's defaults.
func New(opts ...Option) *System {
	s := &System{
		seed:            1,
		correctionLimit: 0.2,
		fractionStep:    0.01,
		maxFraction:     0.2,
		parallelism:     1,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// defaultModel returns the paper's model assignment: Mask R-CNN for
// night-street, YOLOv4 elsewhere.
func defaultModel(datasetName string) string {
	if datasetName == "night-street" {
		return "mask-rcnn"
	}
	return "yolov4"
}

// Resolve turns a parsed query into a profile.Spec bound to a corpus and
// a model.
func (s *System) Resolve(q *query.Query) (*profile.Spec, error) {
	v, err := dataset.Load(q.Dataset)
	if err != nil {
		return nil, err
	}
	modelName := q.Model
	if modelName == "" {
		modelName = defaultModel(q.Dataset)
	}
	model, err := detect.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	class := q.Class
	var predicate func(float64) float64
	if q.Predicate != nil {
		class = q.Predicate.Class
		pred := q.Predicate
		predicate = func(x float64) float64 {
			if pred.Eval(x) {
				return 1
			}
			return 0
		}
	}
	spec := &profile.Spec{
		Video:     v,
		Model:     model,
		Class:     class,
		Agg:       q.Agg,
		Params:    q.Params(),
		Predicate: predicate,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if q.Setting.Resolution != 0 && !model.ValidResolution(q.Setting.Resolution) {
		return nil, fmt.Errorf("core: resolution %d invalid for model %s", q.Setting.Resolution, model.Name)
	}
	return spec, nil
}

// Profiles bundles the output of the profile-generation stage.
type Profiles struct {
	Spec       *profile.Spec
	Cube       *profile.Hypercube
	Correction *profile.ConstructionResult
	// Elapsed is the wall-clock profile-generation time; ModelInvocations
	// counts detector frame evaluations (Section 5.3.1's cost metric).
	Elapsed          time.Duration
	ModelInvocations int64
}

// GenerateProfiles runs the profile-generation stage for a query
// (Problem 2): construct the correction set by the elbow heuristic, then
// evaluate the full intervention-candidate hypercube.
func (s *System) GenerateProfiles(q *query.Query) (*Profiles, error) {
	return s.GenerateProfilesCtx(context.Background(), q)
}

// GenerateProfilesCtx is GenerateProfiles with cancellation threaded
// through the whole pipeline: a done ctx aborts planning, correction
// construction, and the hypercube's detect and estimate stages, returning
// the context's error with no partial result.
func (s *System) GenerateProfilesCtx(ctx context.Context, q *query.Query) (*Profiles, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	invBefore := detect.Invocations()
	root := stats.NewStream(s.seed)

	corr, err := profile.ConstructCorrectionCtx(ctx, spec, s.correctionLimit, root.Child(1))
	if err != nil {
		return nil, fmt.Errorf("core: constructing correction set: %w", err)
	}
	fractions := plan.CandidateFractions(s.fractionStep, s.maxFraction)
	cube, err := profile.GenerateHypercubeCtx(ctx, spec, profile.HypercubeOptions{
		Fractions:      fractions,
		Correction:     corr.Correction,
		EarlyStopDelta: s.earlyStopDelta,
		Parallelism:    s.parallelism,
	}, root.Child(2))
	if err != nil {
		return nil, fmt.Errorf("core: generating hypercube: %w", err)
	}
	return &Profiles{
		Spec:             spec,
		Cube:             cube,
		Correction:       corr,
		Elapsed:          time.Since(start),
		ModelInvocations: detect.Invocations() - invBefore,
	}, nil
}

// SweepProfile generates a single-axis profile (fractions at the given
// resolution and removal combo) for a query — the 2D plot an administrator
// starts from. When opts.Parallelism is zero the system's configured
// parallelism (WithParallelism) applies.
func (s *System) SweepProfile(q *query.Query, opts profile.SweepOptions) (*profile.Profile, error) {
	return s.SweepProfileCtx(context.Background(), q, opts)
}

// SweepProfileCtx is SweepProfile with cancellation.
func (s *System) SweepProfileCtx(ctx context.Context, q *query.Query, opts profile.SweepOptions) (*profile.Profile, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.parallelism
	}
	return profile.SweepFractionsCtx(ctx, spec, opts, stats.NewStream(s.seed).Child(3))
}

// LadderProfileCtx generates a fidelity-ladder profile for a query: one
// tradeoff point per tier of the named ladder (plan.LadderByName). The
// ladder's non-random tiers are repaired with the supplied correction
// set; pass nil only for all-random ladders. When opts.Parallelism is
// zero the system's configured parallelism applies.
func (s *System) LadderProfileCtx(ctx context.Context, q *query.Query, ladder plan.Ladder, opts profile.LadderOptions) (*profile.Profile, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.parallelism
	}
	return profile.GenerateLadderCtx(ctx, spec, ladder, opts, stats.NewStream(s.seed).Child(3))
}

// Preferences are the public preferences guiding the tradeoff choice.
type Preferences struct {
	// MaxError is the largest acceptable analytical error bound.
	MaxError float64
}

// ChooseTradeoff applies the preferences to a generated hypercube.
func (s *System) ChooseTradeoff(p *Profiles, prefs Preferences) (degrade.Setting, error) {
	setting, ok := p.Cube.ChooseTradeoff(prefs.MaxError)
	if !ok {
		return degrade.Setting{}, fmt.Errorf(
			"core: no intervention candidate satisfies max error %v; loosen the preference or extend the candidates", prefs.MaxError)
	}
	return setting, nil
}

// Result is an executed query answer.
type Result struct {
	Query    *query.Query
	Setting  degrade.Setting
	Estimate estimate.Estimate
	Repaired bool
}

// Execute runs the query under its own intervention setting (Problem 1).
// Non-random settings are automatically repaired with a correction set
// constructed by the elbow heuristic.
func (s *System) Execute(q *query.Query) (*Result, error) {
	return s.ExecuteSetting(q, q.Setting)
}

// ExecuteCtx is Execute with cancellation.
func (s *System) ExecuteCtx(ctx context.Context, q *query.Query) (*Result, error) {
	return s.ExecuteSettingCtx(ctx, q, q.Setting)
}

// ExecuteSetting runs the query under an explicit setting (typically one
// chosen from a profile).
func (s *System) ExecuteSetting(q *query.Query, setting degrade.Setting) (*Result, error) {
	return s.ExecuteSettingCtx(context.Background(), q, setting)
}

// ExecuteSettingCtx is ExecuteSetting with cancellation.
func (s *System) ExecuteSettingCtx(ctx context.Context, q *query.Query, setting degrade.Setting) (*Result, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if err := setting.Validate(spec.Model); err != nil {
		return nil, err
	}
	root := stats.NewStream(s.seed)
	var corr *estimate.Correction
	repaired := false
	if !setting.IsRandomOnly(spec.Model) {
		res, err := profile.ConstructCorrectionCtx(ctx, spec, s.correctionLimit, root.Child(1))
		if err != nil {
			return nil, fmt.Errorf("core: constructing correction set: %w", err)
		}
		corr = res.Correction
		repaired = true
	}
	est, err := spec.EstimateSettingCtx(ctx, setting, corr, root.Child(4))
	if err != nil {
		return nil, err
	}
	return &Result{Query: q, Setting: setting, Estimate: est, Repaired: repaired}, nil
}

// AdaptiveResult is the outcome of ExecuteUntil.
type AdaptiveResult = profile.AdaptiveResult

// ExecuteUntil answers the query adaptively: frames are sampled (and
// detected) one batch at a time until the any-time error bound reaches
// targetErr, or maxFraction of the corpus has been touched. This is the
// stopping-rule usage the paper's EBGS baseline was built for, with the
// Hoeffding-Serfling any-time construction keeping the guarantee valid
// under adaptive stopping. Only random-only settings and mean-type
// aggregates are supported.
func (s *System) ExecuteUntil(q *query.Query, targetErr, maxFraction float64) (*AdaptiveResult, error) {
	return s.ExecuteUntilCtx(context.Background(), q, targetErr, maxFraction)
}

// ExecuteUntilCtx is ExecuteUntil with cancellation.
func (s *System) ExecuteUntilCtx(ctx context.Context, q *query.Query, targetErr, maxFraction float64) (*AdaptiveResult, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	return profile.RunUntilCtx(ctx, spec, q.Setting, targetErr, maxFraction, stats.NewStream(s.seed).Child(5))
}

// GroundTruth computes the query's exact answer over the non-degraded
// corpus. It exists for experiments and examples; a production deployment
// cannot call it without violating the degradation goals.
func (s *System) GroundTruth(q *query.Query) (float64, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return 0, err
	}
	return spec.TrueAnswer()
}

// TransferProfile generates a fraction-axis profile on a *similar* video
// and re-labels it for the target corpus — the Section 3.3.1 fallback when
// the query video is too sensitive even for a correction set. The paper's
// Section 5.3.2 shows such profiles track the target's within a few
// percent.
func (s *System) TransferProfile(q *query.Query, similarDataset string, opts profile.SweepOptions) (*profile.Profile, error) {
	similar := *q
	similar.Dataset = similarDataset
	prof, err := s.SweepProfile(&similar, opts)
	if err != nil {
		return nil, err
	}
	prof.VideoName = q.Dataset + " (transferred from " + similarDataset + ")"
	return prof, nil
}
