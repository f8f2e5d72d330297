package profile

import (
	"context"
	"fmt"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
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

// SweepFractionsCtx produces a fraction-axis profile. Sampling is nested:
// one permutation of the admissible pool is drawn and each fraction takes a
// prefix, so model outputs computed for a low rate are reused at every
// higher rate — the paper's reuse strategy. A prefix of a uniform random
// permutation is itself a uniform without-replacement sample, so the
// estimator assumptions hold at every step.
//
// It runs the three-stage pipeline: plan the sweep's tasks (internal/plan),
// materialise the sweep's one detector work unit in the column store, then
// estimate every task from stored columns. A done ctx aborts between (and
// inside) stages; no partial profile is returned.
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
	tasks := sweepTasks(sw)
	if opts.EarlyStopDelta <= 0 {
		// Nesting makes every smaller task a prefix of the largest, so the
		// sweep is its own single work unit.
		last := tasks[len(tasks)-1]
		unit := plan.Unit{Setting: last.Setting, Resolution: sw.Resolution, Frames: sw.Frames()}
		if err := spec.materialise(ctx, []plan.Unit{unit}, opts.Parallelism); err != nil {
			return nil, err
		}
	}
	points, err := spec.estimateTasks(ctx, tasks, opts.Correction, opts.EarlyStopDelta, opts.Parallelism, nil)
	if err != nil {
		return nil, err
	}
	return spec.newProfile(points), nil
}

// sweepTasks lists a planned sweep's degradation plans in task order.
func sweepTasks(sw *plan.Sweep) []*degrade.Plan {
	tasks := make([]*degrade.Plan, len(sw.Tasks))
	for i := range sw.Tasks {
		tasks[i] = sw.Tasks[i].Plan
	}
	return tasks
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
	// and evaluate (combo, resolution) cells concurrently: 1 takes them one
	// at a time, 0 or negative means one worker per CPU. It does not bound
	// detection: the column store detects each unit's frames on one worker
	// per CPU at any setting (outputs.Ensure). Every cell derives its
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
// stored columns. Cells whose estimates fail render as NaN rows, like
// infeasible cells, but a cancelled ctx aborts the whole generation:
// detector work stops and an error is returned so callers never persist a
// partial hypercube.
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
		// Detect stage over the deduplicated per-resolution units.
		// Early-stopping sweeps skip it — they must detect lazily, point by
		// point, or stopping would save nothing.
		if err := spec.materialise(ctx, hp.Units(), opts.Parallelism); err != nil {
			return nil, err
		}
	}

	// Estimate stage: one task per planned cell, each owning its row. The
	// grid is the fan-out, so each cell's sweep stays sequential and
	// concurrency stays bounded by opts.Parallelism.
	err = parallel.ForCtx(ctx, len(hp.Cells), opts.Parallelism, func(k int) error {
		cell := &hp.Cells[k]
		row := make([]float64, len(opts.Fractions))
		for fi := range row {
			row[fi] = math.NaN()
		}
		if cell.Sweep != nil {
			points, err := spec.estimateTasks(ctx, sweepTasks(cell.Sweep), opts.Correction, opts.EarlyStopDelta, 1, nil)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// An estimator failure leaves the cell's row NaN.
			if err == nil {
				for i, pt := range points {
					row[cell.Sweep.Tasks[i].Index] = pt.Estimate.ErrBound
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
