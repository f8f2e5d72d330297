package plan

import (
	"context"
	"fmt"

	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// A fidelity ladder is an ordered sequence of composite intervention
// settings — tiers — that a deployment steps down under pressure (privacy
// review, load shedding, bandwidth caps). Tiers are first-class candidate
// settings: each combines sampling, resolution, removal, and pixel axes,
// and the ladder is valid only when every step is monotone — tier k+1 is
// at least as degraded as tier k on EVERY axis, per the degrade axis
// registry's order. Monotonicity is what makes stepping down semantically
// safe: a fallback can never reveal more than the tier it replaces.

// Tier is one rung of a fidelity ladder.
type Tier struct {
	Name    string
	Setting degrade.Setting
}

// Ladder is an ordered, monotone sequence of tiers, loosest first.
type Ladder struct {
	Name  string
	Tiers []Tier
}

// Validate checks every tier's setting against the model and the ladder's
// monotonicity: each axis of tier k+1 must be at least as tight as tier
// k's, per the degrade registry's per-axis order.
func (l Ladder) Validate(m *detect.Model) error {
	if len(l.Tiers) == 0 {
		return fmt.Errorf("plan: ladder %q has no tiers", l.Name)
	}
	seen := map[string]bool{}
	for ti, tier := range l.Tiers {
		if tier.Name == "" {
			return fmt.Errorf("plan: ladder %q tier %d has no name", l.Name, ti)
		}
		if seen[tier.Name] {
			return fmt.Errorf("plan: ladder %q has duplicate tier %q", l.Name, tier.Name)
		}
		seen[tier.Name] = true
		if err := tier.Setting.Validate(m); err != nil {
			return fmt.Errorf("plan: ladder %q tier %q: %w", l.Name, tier.Name, err)
		}
	}
	for k := 1; k < len(l.Tiers); k++ {
		prev, next := l.Tiers[k-1], l.Tiers[k]
		for _, ax := range degrade.Axes() {
			if !ax.Tighter(prev.Setting, next.Setting, m) {
				return fmt.Errorf("plan: ladder %q not monotone on axis %q: tier %q is looser than tier %q",
					l.Name, ax.Name, next.Name, prev.Name)
			}
		}
	}
	return nil
}

// DefaultLadder returns the built-in four-rung ladder for a model: full
// fidelity sampling, an economy rung at half resolution, a degraded rung
// adding motion blur and coarse quantization, and a privacy rung stacking
// person removal, occlusion and noise on top. Every rung is monotone on
// every axis by construction.
func DefaultLadder(m *detect.Model) Ladder {
	rs := CandidateResolutions(m)
	half := rs[len(rs)/2]
	return Ladder{
		Name: "default",
		Tiers: []Tier{
			{Name: "full", Setting: degrade.Setting{SampleFraction: 0.2}},
			{Name: "eco", Setting: degrade.Setting{SampleFraction: 0.1, Resolution: half}},
			{Name: "degraded", Setting: degrade.Setting{
				SampleFraction: 0.05, Resolution: half, MotionBlur: 7, Quantize: 32}},
			{Name: "privacy", Setting: degrade.Setting{
				SampleFraction: 0.02, Resolution: half, MotionBlur: 9, Quantize: 16,
				Occlusion: 0.2, NoiseSigma: 0.05, Restricted: []scene.Class{scene.Person}}},
		},
	}
}

// LadderByName resolves a named ladder; "default" (or "") is the built-in
// DefaultLadder. It is the registry CLIs and the daemon expose.
func LadderByName(name string, m *detect.Model) (Ladder, error) {
	switch name {
	case "", "default":
		return DefaultLadder(m), nil
	}
	return Ladder{}, fmt.Errorf("plan: unknown ladder %q (available: default)", name)
}

// LadderTask is one planned tier evaluation. Plan is nil when the tier is
// infeasible against the corpus (its sample exceeds the admissible pool);
// the executor renders those as absent points.
type LadderTask struct {
	Index int
	Tier  Tier
	Plan  *degrade.Plan
}

// LadderPlan is the execution plan of one ladder: a degradation plan per
// feasible tier plus the deduplicated detector work units.
type LadderPlan struct {
	Ladder Ladder
	Tasks  []LadderTask
}

// BuildLadder validates the ladder and materialises each tier's
// degradation plan. Tier randomness derives from the tier's index, so
// plans — and therefore ladder profiles — are bit-identical at any
// executor parallelism. detectNative runs before a restricted tier's scan.
func BuildLadder(ctx context.Context, v *scene.Video, m *detect.Model, l Ladder, stream *stats.Stream) (*LadderPlan, error) {
	defer PlanTimer()()
	if err := l.Validate(m); err != nil {
		return nil, err
	}
	lp := &LadderPlan{Ladder: l}
	detected := 0 // lp.Tasks[:detected] have had their native frames detected
	for ti, tier := range l.Tiers {
		if len(tier.Setting.Restricted) > 0 {
			if err := detectNative(ctx, v, m, tierPlans(lp.Tasks[detected:])); err != nil {
				return nil, err
			}
			detected = len(lp.Tasks)
		}
		p, err := degrade.ApplyCtx(ctx, v, m, tier.Setting, stream.ChildN(0x1adde2, uint64(ti)))
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Infeasible tier (sample exceeds the admissible pool after
			// removal): keep the rung with a nil plan rather than failing
			// the ladder — deployments skip to the next rung.
			p = nil
		}
		lp.Tasks = append(lp.Tasks, LadderTask{Index: ti, Tier: tier, Plan: p})
	}
	tasksPlanned.Add(int64(len(lp.Tasks)))
	return lp, nil
}

// Units dedups the ladder's detector work across its feasible tiers by
// (view spec, resolution); see dedup.
func (lp *LadderPlan) Units() []Unit {
	return dedup(tierPlans(lp.Tasks))
}

// tierPlans returns the plans of the feasible tiers among tasks.
func tierPlans(tasks []LadderTask) []*degrade.Plan {
	var plans []*degrade.Plan
	for _, task := range tasks {
		if task.Plan != nil {
			plans = append(plans, task.Plan)
		}
	}
	return plans
}
