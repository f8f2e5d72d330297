// Package plan is the planning stage of the profile-generation pipeline:
// it enumerates, up front, every (setting, frame-set, estimator) task a
// fraction sweep, degradation hypercube, or correction curve will execute,
// and dedups the physical detector work the tasks share. The executor (in
// internal/profile) then runs two further stages over the plan: a detect
// stage that materialises the deduplicated work units in the
// detector-output column store (internal/outputs), and an estimate stage
// that computes every task's bound from stored columns.
//
// Planning is deterministic: a sweep's nested sample comes from one
// stream permutation (each fraction takes a prefix), and hypercube cells
// derive their streams from their grid coordinates, so the same seed
// always produces the same plan — and therefore bit-identical profiles —
// at any worker count.
package plan

import (
	"context"
	"slices"
	"sort"

	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// SweepSpec fixes the swept axis and the frozen axes of one fraction
// sweep. Fractions must be validated (non-empty, ascending) by the caller;
// BuildSweep materialises plans only for feasible fractions.
type SweepSpec struct {
	Fractions []float64
	// Base freezes every non-sampling intervention axis of the sweep —
	// resolution, removal, and the pixel axes (noise, blur, quantization,
	// occlusion) — via the degrade axis registry. Its SampleFraction is
	// ignored; each task takes its fraction from Fractions.
	Base degrade.Setting
}

// Task is one planned profile-point evaluation: the estimator input is
// the degradation plan; Index is the task's position in the sweep (and
// its fraction's index in SweepSpec.Fractions).
type Task struct {
	Index int
	Plan  *degrade.Plan
}

// Sweep is the execution plan of one fraction sweep. Tasks are ordered by
// ascending fraction; each task's sampled frames are a prefix-superset of
// the previous task's (nested sampling), so the sweep's total detector
// work unit is exactly the last task's frame set.
type Sweep struct {
	Resolution int // resolved model input resolution
	Admissible []int
	Tasks      []Task
}

// Frames returns the union of frames the sweep's tasks touch. Nested
// sampling makes this the last task's sample.
func (s *Sweep) Frames() []int {
	if len(s.Tasks) == 0 {
		return nil
	}
	return s.Tasks[len(s.Tasks)-1].Plan.Sampled
}

// BuildSweep enumerates the sweep's tasks: compute the admissible pool
// (running the presence protocol under ctx), draw one permutation from
// stream, and materialise the nested degradation plan of every feasible
// fraction. Fractions whose sample would exceed the admissible pool are
// dropped (image removal shrinks the pool); a sweep with zero tasks means
// no fraction is feasible, which the caller reports.
func BuildSweep(ctx context.Context, v *scene.Video, m *detect.Model, spec SweepSpec, stream *stats.Stream) (*Sweep, error) {
	defer PlanTimer()()

	admissible, err := degrade.AdmissibleFramesCtx(ctx, v, spec.Base.Restricted)
	if err != nil {
		return nil, err
	}
	return buildSweep(v, m, spec, admissible, stream), nil
}

// buildSweep is BuildSweep over an already resolved admissible pool, which
// the sweep's plans share read-only.
func buildSweep(v *scene.Video, m *detect.Model, spec SweepSpec, admissible []int, stream *stats.Stream) *Sweep {
	perm := stream.Perm(len(admissible))
	resolution := spec.Base.ResolveResolution(m)
	n := v.NumFrames()

	sw := &Sweep{
		Resolution: resolution,
		Admissible: admissible,
	}
	for fi, f := range spec.Fractions {
		want := int(float64(n)*f + 0.5)
		if want < 1 {
			want = 1
		}
		if want > len(admissible) {
			break // remaining (larger) fractions are infeasible too
		}
		setting := spec.Base
		setting.SampleFraction = f
		p := &degrade.Plan{
			Setting:    setting,
			Resolution: resolution,
			Admissible: admissible,
			Total:      n,
		}
		p.Sampled = make([]int, want)
		for i := 0; i < want; i++ {
			p.Sampled[i] = admissible[perm[i]]
		}
		sw.Tasks = append(sw.Tasks, Task{Index: fi, Plan: p})
	}
	tasksPlanned.Add(int64(len(sw.Tasks)))
	return sw
}

// Cell is one (class-combo, resolution) cell of a hypercube plan. Sweep
// is nil for infeasible cells (every fraction exceeds the admissible
// pool) — the executor renders those as NaN rows, like the legacy path.
type Cell struct {
	CI, RI int
	Sweep  *Sweep
}

// Hypercube is the execution plan of a full degradation hypercube: one
// planned sweep per (combo, resolution) cell over the candidate grid.
type Hypercube struct {
	Fractions   []float64
	Resolutions []int           // loosest (native) first
	Combos      [][]scene.Class // loosest (none) first
	Cells       []Cell          // row-major: ci*len(Resolutions)+ri
}

// BuildHypercube plans the full candidate grid. Each cell's randomness is
// a stream child keyed by its grid coordinates — the same derivation the
// executor has always used — so planning does not perturb results.
// Presence scans for the restricted-class combos run here, under ctx: the
// prior-information protocol is part of planning, not execution. A combo's
// admissible pool does not depend on resolution, so it is resolved once
// per combo and shared by the combo's cells; detectNative runs before each
// scan.
func BuildHypercube(ctx context.Context, v *scene.Video, m *detect.Model, fractions []float64, stream *stats.Stream) (*Hypercube, error) {
	defer PlanTimer()()
	h := &Hypercube{
		Fractions:   fractions,
		Resolutions: CandidateResolutions(m),
		Combos:      ClassCombos(),
	}
	detected := 0 // h.Cells[:detected] have had their native frames detected
	for ci := range h.Combos {
		if len(h.Combos[ci]) > 0 {
			if err := detectNative(ctx, v, m, cellPlans(h.Cells[detected:])); err != nil {
				return nil, err
			}
			detected = len(h.Cells)
		}
		admissible, err := degrade.AdmissibleFramesCtx(ctx, v, h.Combos[ci])
		if err != nil {
			return nil, err
		}
		for ri := range h.Resolutions {
			sw := buildSweep(v, m, SweepSpec{
				Fractions: fractions,
				Base: degrade.Setting{
					Resolution: h.Resolutions[ri],
					Restricted: h.Combos[ci],
				},
			}, admissible, stream.ChildN(uint64(ci), uint64(ri)))
			if len(sw.Tasks) == 0 {
				sw = nil
			}
			h.Cells = append(h.Cells, Cell{CI: ci, RI: ri, Sweep: sw})
		}
	}
	return h, nil
}

// detectNative Ensures the frames the plans sample at m's native input on
// the unviewed corpus, before a presence scan: the scan then reads their
// rows instead of probing them, and the detect stage, which needs the same
// rows, finds them stored. (A lazy early-stopping cube may never read some.)
func detectNative(ctx context.Context, v *scene.Video, m *detect.Model, plans []*degrade.Plan) error {
	var frames []int
	for _, p := range plans {
		if p.Resolution == m.NativeInput && p.Setting.View().IsZero() {
			frames = append(frames, p.Sampled...)
		}
	}
	sort.Ints(frames)
	return outputs.Ensure(ctx, v, m, scene.Car, m.NativeInput, slices.Compact(frames))
}

// Unit is one deduplicated physical detector work unit: the frames to
// evaluate at one input resolution over one corpus view (the model is
// implicit from the generation the plan belongs to). Setting carries only
// the view (pixel) axes of the plans that share the unit.
type Unit struct {
	Setting    degrade.Setting
	Resolution int
	Frames     []int
}

// Units dedups the hypercube's detector work across cells: every cell at
// the same resolution contributes its sweep's frame set to one unit, so
// the same physical (frame, resolution) touched by several class combos'
// sweeps is evaluated once.
func (h *Hypercube) Units() []Unit {
	return dedup(cellPlans(h.Cells))
}

// cellPlans returns the last task's plan of every feasible cell: nested
// sampling makes its sample every frame the cell reads.
func cellPlans(cells []Cell) []*degrade.Plan {
	var plans []*degrade.Plan
	for _, cell := range cells {
		if sw := cell.Sweep; sw != nil {
			plans = append(plans, sw.Tasks[len(sw.Tasks)-1].Plan)
		}
	}
	return plans
}

// dedup merges the plans' sampled frames into units keyed by (view spec,
// resolution): plans observing the same corpus view at the same input
// resolution share one unit, and a frame several of them sample is counted
// once. Unit order is first-appearance and frames are ascending, so the
// result is deterministic. The saving is tracked in the package stage
// counters and is the pipeline's first dedup win (the column store's
// cross-class sharing is the second).
func dedup(plans []*degrade.Plan) []Unit {
	type unitKey struct {
		spec       string
		resolution int
	}
	index := map[unitKey]int{}
	var units []Unit
	var sets []map[int]struct{}
	var requested, unique int64
	for _, p := range plans {
		key := unitKey{spec: p.Setting.ViewSpec(), resolution: p.Resolution}
		i, ok := index[key]
		if !ok {
			i = len(units)
			index[key] = i
			// Keep only the pixel (view) axes: frame choice is the union of
			// the sharing plans' samples, resolution is the unit key.
			view := p.Setting
			view.SampleFraction = 0
			view.Resolution = 0
			view.Restricted = nil
			units = append(units, Unit{Setting: view, Resolution: p.Resolution})
			sets = append(sets, map[int]struct{}{})
		}
		requested += int64(len(p.Sampled))
		for _, f := range p.Sampled {
			sets[i][f] = struct{}{}
		}
	}
	for i, set := range sets {
		frames := make([]int, 0, len(set))
		for f := range set {
			frames = append(frames, f)
		}
		sort.Ints(frames)
		unique += int64(len(frames))
		units[i].Frames = frames
	}
	unitsPlanned.Add(int64(len(units)))
	dedupSavedFrames.Add(requested - unique)
	return units
}
