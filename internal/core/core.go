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
//
// System is the front door for every generation: resolve the query, decide
// whether anything the artifact covers is non-random, construct the
// correction set under the administrator limit if so, then run the cube,
// sweep, ladder or execution. The daemon's generator and the CLI are
// adapters over it. The seed's stream children are the contract that keeps
// every surface's answer the same: 1 correction set, 2 hypercube, 3 sweep
// or ladder, 4 execution, 5 adaptive execution.
package core

import (
	"context"
	"fmt"
	"slices"
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

// The paper's generation defaults, spelled here once: New starts from them,
// server.GenRequest normalizes zero fields to them, and the CLI's flag
// defaults read them.
const (
	DefaultSeed            uint64 = 1
	DefaultFractionStep           = 0.01 // candidate design, Section 3.3.2
	DefaultMaxFraction            = 0.2
	DefaultCorrectionLimit        = 0.2 // administrator limit, Section 3.3.1
)

// System is the Smokescreen prototype instance.
type System struct {
	seed uint64
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
	// parallelism bounds the cell, unit and estimate fan-outs of profile
	// generation (not detection); 0 or negative means one per CPU.
	parallelism int
}

// Option configures a System.
type Option func(*System)

// WithSeed fixes the root randomness seed (default DefaultSeed).
func WithSeed(seed uint64) Option {
	return func(s *System) { s.seed = seed }
}

// WithFractionCandidates sets the candidate sample-fraction step and
// maximum (defaults DefaultFractionStep and DefaultMaxFraction).
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

// WithParallelism bounds the workers over hypercube cells, detect-stage
// units and fraction or tier estimates: 1 — the default — takes them one
// at a time, 0 or negative means one per CPU. It is not sequential: the
// column store detects each unit's frames on one worker per CPU at any
// setting (outputs.Ensure). Randomness is derived per grid cell from
// stats.Stream children, so profiles are bit-for-bit identical at any
// setting.
func WithParallelism(n int) Option {
	return func(s *System) { s.parallelism = n }
}

// New constructs a System with the paper's defaults.
func New(opts ...Option) *System {
	s := &System{
		seed:         DefaultSeed,
		fractionStep: DefaultFractionStep,
		maxFraction:  DefaultMaxFraction,
		parallelism:  1,
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

// GenerateProfilesCtx runs the profile-generation stage for a query
// (Problem 2): construct the correction set by the elbow heuristic, then
// evaluate the full intervention-candidate hypercube. Cancellation is
// threaded through the whole pipeline: a done ctx aborts planning,
// correction construction, and the hypercube's detect and estimate stages,
// returning the context's error with no partial result.
func (s *System) GenerateProfilesCtx(ctx context.Context, q *query.Query) (*Profiles, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	invBefore := detect.Invocations()

	// The candidate grid always holds non-random cells.
	corr, err := s.constructCorrection(ctx, spec)
	if err != nil {
		return nil, err
	}
	fractions := plan.CandidateFractions(s.fractionStep, s.maxFraction)
	cube, err := profile.GenerateHypercubeCtx(ctx, spec, profile.HypercubeOptions{
		Fractions:      fractions,
		Correction:     corr.Correction,
		EarlyStopDelta: s.earlyStopDelta,
		Parallelism:    s.parallelism,
	}, stats.NewStream(s.seed).Child(2))
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

// constructCorrection builds the correction set by the elbow heuristic
// under the administrator limit: the system's one call of
// profile.ConstructCorrectionCtx.
func (s *System) constructCorrection(ctx context.Context, spec *profile.Spec) (*profile.ConstructionResult, error) {
	res, err := profile.ConstructCorrectionCtx(ctx, spec, DefaultCorrectionLimit, stats.NewStream(s.seed).Child(1))
	if err != nil {
		return nil, fmt.Errorf("core: constructing correction set: %w", err)
	}
	return res, nil
}

// repairFor is the correction-set policy every generation shares: a
// caller-supplied set is used as given; otherwise one is constructed iff
// any setting the artifact covers is non-random (Algorithm 3 repair).
func (s *System) repairFor(ctx context.Context, spec *profile.Spec, given *estimate.Correction, covered ...degrade.Setting) (*estimate.Correction, error) {
	if given != nil {
		return given, nil
	}
	for _, setting := range covered {
		if !setting.IsRandomOnly(spec.Model) {
			res, err := s.constructCorrection(ctx, spec)
			if err != nil {
				return nil, err
			}
			return res.Correction, nil
		}
	}
	return nil, nil
}

// sameAxes reports whether two settings agree on every non-sampling axis.
func sameAxes(a, b degrade.Setting) bool {
	return slices.Equal(a.KeyFields(), b.KeyFields())
}

// SweepProfileCtx generates a single-axis profile for a query — the 2D plot
// an administrator starts from. It sweeps opts.Fractions under the query's
// own intervention clauses: opts.Setting may be left zero or repeat them,
// and anything else is an error. A nil opts.Correction means the system's
// own (repairFor); a zero opts.Parallelism means the system's
// (WithParallelism).
func (s *System) SweepProfileCtx(ctx context.Context, q *query.Query, opts profile.SweepOptions) (*profile.Profile, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if !sameAxes(opts.Setting, degrade.Setting{}) && !sameAxes(opts.Setting, q.Setting) {
		return nil, fmt.Errorf("core: sweep setting (%v) conflicts with the query's intervention clauses (%v)", opts.Setting, q.Setting)
	}
	opts.Setting = q.Setting
	if opts.Correction, err = s.repairFor(ctx, spec, opts.Correction, opts.Setting); err != nil {
		return nil, err
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = s.parallelism
	}
	return profile.SweepFractionsCtx(ctx, spec, opts, stats.NewStream(s.seed).Child(3))
}

// ResolveLadder resolves a ladder request without generating anything: the
// query bound to its corpus and model, and the named ladder. A ladder's
// tiers carry the intervention axes, so a query with clauses is rejected.
func (s *System) ResolveLadder(q *query.Query, name string) (*profile.Spec, plan.Ladder, error) {
	spec, err := s.resolveLadderQuery(q)
	if err != nil {
		return nil, plan.Ladder{}, err
	}
	ladder, err := plan.LadderByName(name, spec.Model)
	return spec, ladder, err
}

func (s *System) resolveLadderQuery(q *query.Query) (*profile.Spec, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if !sameAxes(q.Setting, degrade.Setting{}) {
		return nil, fmt.Errorf("core: ladder requests take their intervention axes from the ladder's tiers; drop the query's RESOLUTION/REMOVE/NOISE/BLUR/QUANTIZE/OCCLUDE clauses")
	}
	return spec, nil
}

// LadderProfileCtx generates a fidelity-ladder profile for a query: one
// tradeoff point per tier. The query must carry no intervention clause
// (see ResolveLadder); opts defaults as in SweepProfileCtx.
func (s *System) LadderProfileCtx(ctx context.Context, q *query.Query, ladder plan.Ladder, opts profile.LadderOptions) (*profile.Profile, error) {
	spec, err := s.resolveLadderQuery(q)
	if err != nil {
		return nil, err
	}
	covered := make([]degrade.Setting, len(ladder.Tiers))
	for i, tier := range ladder.Tiers {
		covered[i] = tier.Setting
	}
	if opts.Correction, err = s.repairFor(ctx, spec, opts.Correction, covered...); err != nil {
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

// ExecuteCtx runs the query under its own intervention setting (Problem 1).
// Non-random settings are automatically repaired with a correction set
// constructed by the elbow heuristic.
func (s *System) ExecuteCtx(ctx context.Context, q *query.Query) (*Result, error) {
	return s.ExecuteSettingCtx(ctx, q, q.Setting)
}

// ExecuteSettingCtx runs the query under an explicit setting (typically
// one chosen from a profile).
func (s *System) ExecuteSettingCtx(ctx context.Context, q *query.Query, setting degrade.Setting) (*Result, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	if err := setting.Validate(spec.Model); err != nil {
		return nil, err
	}
	corr, err := s.repairFor(ctx, spec, nil, setting)
	if err != nil {
		return nil, err
	}
	est, err := spec.EstimateSettingCtx(ctx, setting, corr, stats.NewStream(s.seed).Child(4))
	if err != nil {
		return nil, err
	}
	return &Result{Query: q, Setting: setting, Estimate: est, Repaired: corr != nil}, nil
}

// AdaptiveResult is the outcome of ExecuteUntilCtx.
type AdaptiveResult = profile.AdaptiveResult

// ExecuteUntilCtx answers the query adaptively: frames are sampled (and
// detected) one batch at a time until the any-time error bound reaches
// targetErr, or maxFraction of the corpus has been touched. This is the
// stopping-rule usage the paper's EBGS baseline was built for, with the
// Hoeffding-Serfling any-time construction keeping the guarantee valid
// under adaptive stopping. Only random-only settings and mean-type
// aggregates are supported.
func (s *System) ExecuteUntilCtx(ctx context.Context, q *query.Query, targetErr, maxFraction float64) (*AdaptiveResult, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return nil, err
	}
	return profile.RunUntilCtx(ctx, spec, q.Setting, targetErr, maxFraction, stats.NewStream(s.seed).Child(5))
}

// GroundTruth computes the query's exact answer over the non-degraded
// corpus: Audit's Truth for callers with no estimate to check.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/check.go takes exact answers from it
func (s *System) GroundTruth(q *query.Query) (float64, error) {
	audit, err := s.Audit(q, estimate.Estimate{})
	return audit.Truth, err
}

// Audit checks an estimate of the query against the non-degraded corpus:
// the exact answer, the true error in the paper's metric, and whether the
// bound held. It exists for experiments, examples and `query -truth`; a
// production deployment cannot call it without violating the degradation
// goals.
func (s *System) Audit(q *query.Query, e estimate.Estimate) (estimate.Audited, error) {
	spec, err := s.Resolve(q)
	if err != nil {
		return estimate.Audited{}, err
	}
	return spec.Audit(e)
}

// TransferProfile generates a fraction-axis profile on a *similar* video
// and re-labels it for the target corpus — the Section 3.3.1 fallback when
// the query video is too sensitive even for a correction set. The paper's
// Section 5.3.2 shows such profiles track the target's within a few
// percent.
func (s *System) TransferProfile(ctx context.Context, q *query.Query, similarDataset string, opts profile.SweepOptions) (*profile.Profile, error) {
	similar := *q
	similar.Dataset = similarDataset
	prof, err := s.SweepProfileCtx(ctx, &similar, opts)
	if err != nil {
		return nil, err
	}
	prof.VideoName = q.Dataset + " (transferred from " + similarDataset + ")"
	return prof, nil
}
