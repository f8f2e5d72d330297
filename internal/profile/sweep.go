package profile

import (
	"context"
	"fmt"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/parallel"
	"smokescreen/internal/plan"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// SweepOptions configures a sample-fraction sweep.
type SweepOptions struct {
	// Fractions to evaluate, ascending. Required.
	Fractions []float64
	// Setting fixes the non-sampling axes of the sweep — resolution,
	// removal, and the pixel axes (noise, blur, quantization, occlusion)
	// — via the degrade axis registry. Its SampleFraction is ignored.
	Setting degrade.Setting
	// Correction repairs bounds for non-random settings and tightens
	// random ones. Required when any non-random axis degrades.
	Correction *estimate.Correction
	// EarlyStopDelta stops the sweep when the bound improves by less than
	// this amount between consecutive fractions (the paper's early
	// stopping, Section 3.3.2). Zero disables early stopping.
	EarlyStopDelta float64
	// Parallelism bounds the worker goroutines used to evaluate fraction
	// points concurrently: 1 (or an early-stopping sweep, which is
	// inherently sequential) evaluates points in order on the calling
	// goroutine; 0 or negative means one worker per CPU. The sample is
	// drawn once up front and every point's estimate is a pure function of
	// its plan and the (deterministic) detector-output columns, so the
	// profile is bit-for-bit identical at any worker count.
	Parallelism int
}

// SweepFractions produces a fraction-axis profile. Sampling is nested: one
// permutation of the admissible pool is drawn and each fraction takes a
// prefix, so model outputs computed for a low rate are reused at every
// higher rate — the paper's reuse strategy. A prefix of a uniform random
// permutation is itself a uniform without-replacement sample, so the
// estimator assumptions hold at every step.
func SweepFractions(spec *Spec, opts SweepOptions, stream *stats.Stream) (*Profile, error) {
	return SweepFractionsCtx(context.Background(), spec, opts, stream)
}

// SweepFractionsCtx is SweepFractions with cancellation, running the
// three-stage pipeline: plan the sweep's tasks (internal/plan), materialise
// the deduplicated detector work unit in the column store, then estimate
// every task from stored columns. A done ctx aborts between (and inside)
// stages; no partial profile is returned.
func SweepFractionsCtx(ctx context.Context, spec *Spec, opts SweepOptions, stream *stats.Stream) (*Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Fractions) == 0 {
		return nil, fmt.Errorf("profile: sweep requires fractions")
	}
	for i := 1; i < len(opts.Fractions); i++ {
		if opts.Fractions[i] <= opts.Fractions[i-1] {
			return nil, fmt.Errorf("profile: fractions must be ascending")
		}
	}
	base := opts.Setting
	base.SampleFraction = opts.Fractions[0]
	if err := base.Validate(spec.Model); err != nil {
		return nil, err
	}
	if !base.IsRandomOnly(spec.Model) && opts.Correction == nil {
		return nil, fmt.Errorf("profile: sweep over non-random setting %v requires a correction set", base)
	}

	sw, err := plan.BuildSweep(ctx, spec.Video, spec.Model, plan.SweepSpec{
		Fractions: opts.Fractions,
		Base:      opts.Setting,
	}, stream)
	if err != nil {
		return nil, err
	}
	if len(sw.Tasks) == 0 {
		return nil, fmt.Errorf("profile: no feasible fraction under %v (admissible pool %d of %d)",
			base, len(sw.Admissible), spec.Video.NumFrames())
	}
	return spec.execSweep(ctx, sw, opts)
}

// execSweep is the executor for one planned sweep: the detect and estimate
// stages of the pipeline. Without early stopping the stages are distinct —
// one Ensure call materialises the sweep's single deduplicated work unit
// (the largest task's frame set; nesting makes every smaller task a
// prefix), then tasks fan out over the worker pool reading stored columns.
// Early stopping is inherently sequential and lazy: each point's detector
// work happens on demand so stopping actually saves invocations, and the
// interleaved detection is attributed to the estimate stage.
func (s *Spec) execSweep(ctx context.Context, sw *plan.Sweep, opts SweepOptions) (*Profile, error) {
	prof := &Profile{
		VideoName: s.Video.Config.Name,
		ModelName: s.Model.Name,
		Class:     s.Class,
		Agg:       s.Agg,
	}
	repaired := opts.Correction != nil && !sw.RandomOnly

	if opts.EarlyStopDelta <= 0 {
		// The detect stage targets the corpus as the sweep's setting
		// observes it: for pixel-axis settings that is the cached view, so
		// the estimate stage's column reads hit the columns built here.
		effective := degrade.EffectiveVideo(s.Video, sw.Tasks[len(sw.Tasks)-1].Plan.Setting)
		stopDetect := plan.DetectTimer()
		err := outputs.Ensure(ctx, effective, s.Model, s.Class, sw.Resolution, sw.Frames())
		stopDetect()
		if err != nil {
			return nil, err
		}

		stopEstimate := plan.EstimateTimer()
		points, err := parallel.MapCtx(ctx, len(sw.Tasks), parallel.Workers(opts.Parallelism), func(i int) (Point, error) {
			est, err := s.estimatePlan(ctx, sw.Tasks[i].Plan, opts.Correction)
			if err != nil {
				return Point{}, err
			}
			return Point{Setting: sw.Tasks[i].Plan.Setting, Estimate: est, Repaired: repaired}, nil
		})
		stopEstimate()
		if err != nil {
			return nil, err
		}
		prof.Points = points
		return prof, nil
	}

	prevBound := math.Inf(1)
	for _, task := range sw.Tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stopEstimate := plan.EstimateTimer()
		est, err := s.estimatePlan(ctx, task.Plan, opts.Correction)
		stopEstimate()
		if err != nil {
			return nil, err
		}
		prof.Points = append(prof.Points, Point{
			Setting:  task.Plan.Setting,
			Estimate: est,
			Repaired: repaired,
		})
		if prevBound-est.ErrBound < opts.EarlyStopDelta && est.ErrBound < 1 {
			break
		}
		prevBound = est.ErrBound
	}
	return prof, nil
}

// Hypercube is the paper's degradation hypercube: error bounds over the
// full (f, p, c) candidate grid. Administrators view 2D slices obtained by
// fixing the other dimensions (initially at their loosest values).
type Hypercube struct {
	VideoName   string
	ModelName   string
	Class       scene.Class
	Agg         estimate.Agg
	Fractions   []float64
	Resolutions []int           // loosest (native) first
	Combos      [][]scene.Class // loosest (none) first
	// Bounds[ci][ri][fi] is the error bound; NaN marks infeasible cells
	// (sample larger than the admissible pool).
	Bounds [][][]float64
}

// HypercubeOptions configures hypercube generation.
type HypercubeOptions struct {
	// Fractions is the sample-fraction axis of the candidate grid. Required.
	Fractions []float64
	// Correction repairs the non-random cells; required (the grid always
	// contains non-random interventions).
	Correction *estimate.Correction
	// EarlyStopDelta applies the paper's early stopping to every fraction
	// sweep (unevaluated cells stay NaN). Zero disables it.
	EarlyStopDelta float64
	// Parallelism bounds the worker goroutines that materialise work units
	// and evaluate (combo, resolution) cells concurrently: 1 is sequential,
	// 0 or negative means one worker per CPU. Every cell derives its
	// randomness from a stats.Stream child keyed by its grid coordinates
	// and writes bounds into its own row, so the hypercube is bit-for-bit
	// identical at any worker count and under any worker completion order.
	Parallelism int
}

// GenerateHypercubeCtx evaluates the full candidate grid (Problem 2)
// through the plan/execute pipeline; each (combo, resolution) pair reuses
// one nested sample. A correction set is required because the grid
// includes non-random interventions.
//
// Planning enumerates every cell's sweep up front (one presence protocol
// per restricted class, one nested sample per cell); the detect stage
// dedups the cells' detector work into per-resolution units — the frames
// several class combos share are evaluated once — and materialises them in
// the column store; the estimate stage then computes every cell's row from
// stored columns. Cells whose estimates fail render as NaN rows (matching
// the legacy behaviour for infeasible cells), but a cancelled ctx aborts
// the whole generation: detector work stops and an error is returned so
// callers never persist a partial hypercube.
func GenerateHypercubeCtx(ctx context.Context, spec *Spec, opts HypercubeOptions, stream *stats.Stream) (*Hypercube, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Correction == nil {
		return nil, fmt.Errorf("profile: hypercube generation requires a correction set")
	}
	hp, err := plan.BuildHypercube(ctx, spec.Video, spec.Model, opts.Fractions, stream)
	if err != nil {
		return nil, err
	}
	cube := &Hypercube{
		VideoName:   spec.Video.Config.Name,
		ModelName:   spec.Model.Name,
		Class:       spec.Class,
		Agg:         spec.Agg,
		Fractions:   opts.Fractions,
		Resolutions: hp.Resolutions,
		Combos:      hp.Combos,
	}
	for range hp.Combos {
		cube.Bounds = append(cube.Bounds, make([][]float64, len(hp.Resolutions)))
	}

	if opts.EarlyStopDelta <= 0 {
		// Detect stage: materialise the deduplicated per-resolution work
		// units. Early-stopping sweeps skip this — they must detect lazily,
		// point by point, or stopping would save nothing.
		units := hp.Units()
		stopDetect := plan.DetectTimer()
		err := parallel.ForCtx(ctx, len(units), opts.Parallelism, func(i int) error {
			return outputs.Ensure(ctx, spec.Video, spec.Model, spec.Class, units[i].Resolution, units[i].Frames)
		})
		stopDetect()
		if err != nil {
			return nil, err
		}
	}

	// Estimate stage: one task per planned cell, each owning its row.
	err = parallel.ForCtx(ctx, len(hp.Cells), opts.Parallelism, func(k int) error {
		cell := &hp.Cells[k]
		row := make([]float64, len(opts.Fractions))
		for fi := range row {
			row[fi] = math.NaN()
		}
		if cell.Sweep != nil {
			prof, err := spec.execSweep(ctx, cell.Sweep, SweepOptions{
				Fractions: opts.Fractions,
				Setting: degrade.Setting{
					Resolution: hp.Resolutions[cell.RI],
					Restricted: hp.Combos[cell.CI],
				},
				Correction:     opts.Correction,
				EarlyStopDelta: opts.EarlyStopDelta,
				// The grid is the outer fan-out; keep each sweep sequential
				// so concurrency stays bounded by opts.Parallelism.
				Parallelism: 1,
			})
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Estimator failures render as a NaN row, like the legacy
				// per-cell sweep failures.
			} else {
				for _, pt := range prof.Points {
					for fi, f := range opts.Fractions {
						if f == pt.Setting.SampleFraction {
							row[fi] = pt.Estimate.ErrBound
						}
					}
				}
			}
		}
		cube.Bounds[cell.CI][cell.RI] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cube, nil
}

// SliceByFraction returns the error bounds across fractions with the
// other axes fixed.
func (h *Hypercube) SliceByFraction(ci, ri int) []float64 {
	return h.Bounds[ci][ri]
}

// SliceByResolution returns the error bounds across resolutions with
// combo and fraction fixed.
func (h *Hypercube) SliceByResolution(ci, fi int) []float64 {
	out := make([]float64, len(h.Resolutions))
	for ri := range h.Resolutions {
		out[ri] = h.Bounds[ci][ri][fi]
	}
	return out
}

// ChooseTradeoff returns the most degraded feasible setting whose bound
// does not exceed maxErr. Degradation is ranked by processed pixel volume
// (f x p^2) with ties broken toward more restricted classes; this is one
// reasonable administrator policy and is deterministic.
func (h *Hypercube) ChooseTradeoff(maxErr float64) (degrade.Setting, bool) {
	var best degrade.Setting
	bestScore := math.Inf(1)
	found := false
	for ci, combo := range h.Combos {
		for ri, res := range h.Resolutions {
			for fi, f := range h.Fractions {
				bound := h.Bounds[ci][ri][fi]
				if math.IsNaN(bound) || bound > maxErr {
					continue
				}
				score := f * float64(res) * float64(res)
				// Prefer more removal at equal pixel volume.
				score -= float64(len(combo)) * 1e-9
				if score < bestScore {
					bestScore = score
					best = degrade.Setting{SampleFraction: f, Resolution: res, Restricted: combo}
					found = true
				}
			}
		}
	}
	return best, found
}
