package profile

import (
	"context"
	"fmt"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/stats"
)

// LadderOptions configures fidelity-ladder profile generation.
type LadderOptions struct {
	// Correction repairs the bounds of non-random tiers (and tightens the
	// random-only ones). Required whenever any feasible tier carries a
	// non-random axis — which every built-in ladder does past its first
	// rung.
	Correction *estimate.Correction
	// Parallelism bounds the worker goroutines that materialise work units
	// and estimate tiers concurrently: 1 takes them one at a time, 0 or
	// negative means one worker per CPU; a unit's frames are detected on one
	// worker per CPU at any setting (outputs.Ensure). Tier randomness derives
	// from tier indices at plan time and every estimate is a pure function
	// of its plan and the stored detector columns, so the profile is
	// bit-for-bit identical at any worker count.
	Parallelism int
}

// GenerateLadderCtx produces a fidelity-ladder profile — one tradeoff
// point per tier, loosest first — through the plan/execute pipeline.
// Planning validates the ladder (monotonicity included) and materialises a
// degradation plan per feasible tier; the detect stage dedups the tiers'
// detector work by (corpus view, resolution) — tiers observing the same
// pixel view at the same input size are evaluated once — and fills the
// column store; the estimate stage then computes each tier's bound from
// stored columns, repairing non-random tiers with the correction set.
// Infeasible tiers (sample exceeding the admissible pool) are absent from
// the profile rather than failing it.
func GenerateLadderCtx(ctx context.Context, spec *Spec, l plan.Ladder, opts LadderOptions, stream *stats.Stream) (*Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lp, err := plan.BuildLadder(ctx, spec.Video, spec.Model, l, stream)
	if err != nil {
		return nil, err
	}
	var tiers []plan.Tier
	var tasks []*degrade.Plan
	needsRepair := false
	for _, task := range lp.Tasks {
		if task.Plan == nil {
			continue
		}
		tiers = append(tiers, task.Tier)
		tasks = append(tasks, task.Plan)
		if !task.Tier.Setting.IsRandomOnly(spec.Model) {
			needsRepair = true
		}
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("profile: ladder %q has no feasible tier on %s", l.Name, spec.Video.Config.Name)
	}
	if needsRepair && opts.Correction == nil {
		return nil, fmt.Errorf("profile: ladder %q has non-random tiers; a correction set is required for sound bounds", l.Name)
	}

	if err := spec.materialise(ctx, lp.Units(), opts.Parallelism); err != nil {
		return nil, err
	}
	points, err := spec.estimateTasks(ctx, tasks, opts.Correction, 0, opts.Parallelism, func(task int, err error) error {
		return fmt.Errorf("profile: ladder %q tier %q: %w", l.Name, tiers[task].Name, err)
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		points[i].Tier = tiers[i].Name
	}
	return spec.newProfile(points), nil
}
