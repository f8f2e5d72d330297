package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"smokescreen/internal/core"
	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/parallel"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/stats"
)

// hypercube_batch: the paper's Problem 2 as a batch job.
//
// Each op generates one full degradation hypercube — every (class combo,
// resolution, fraction) candidate — through core.GenerateProfilesCtx from
// cold caches. It is the only workload where planning is hot (the presence
// scans behind the class-removal combos run inside plan.BuildHypercube) and
// where the worker-pool fan-out in internal/parallel carries the op.

const (
	cubeCorpus      = "small"
	cubeStep        = 0.02
	cubeMaxFraction = 0.1
)

// cubeOp is one hypercube to generate.
type cubeOp struct {
	Agg   string `json:"agg"`
	Class string `json:"class"`
	Seed  uint64 `json:"seed"`
}

func (op cubeOp) name() string { return fmt.Sprintf("%s/%s/seed%d", op.Agg, op.Class, op.Seed) }

func (op cubeOp) query() (*query.Query, error) {
	return query.Parse(genRequest(op.Agg, op.Class, cubeCorpus, "").Query)
}

// cubeUniverse is one round's cubes: one per class. A cube's cost is in its
// presence scans and its detector units, which the aggregate barely moves, so
// two cover it. Both aggregates are mean-type: every cube repairs its cells
// against a correction set, and under parallel estimation an extremum's
// repaired bound is not repeatable (see meanAggs).
func cubeUniverse(tiny bool) []cubeOp {
	ops := []cubeOp{{Agg: "AVG", Class: "car"}, {Agg: "SUM", Class: "person"}}
	if tiny {
		return ops[:1]
	}
	return ops
}

// cubeResult is one generated cube, kept for the checks after timing.
type cubeResult struct {
	op    cubeOp
	bytes []byte
}

type hypercubeBatch struct {
	b        *bench
	universe []cubeOp
	round0   []cubeResult

	// Traced-run samples.
	counts   genCounts
	targets  []probeTarget
	speedups []float64
}

func newHypercubeBatch(b *bench) workload {
	return &hypercubeBatch{b: b, universe: cubeUniverse(b.opts.Tiny)}
}

func (w *hypercubeBatch) ordered(r int) []cubeOp {
	perm := stats.NewStream(w.b.opts.Seed).ChildN(0xc0be, uint64(r)).Perm(len(w.universe))
	ops := make([]cubeOp, len(w.universe))
	for i, j := range perm {
		ops[i] = w.universe[j]
		ops[i].Seed = 1 // the same cubes in every round of every run; the run's seed only orders them
	}
	return ops
}

func (w *hypercubeBatch) opList(r int) any { return w.ordered(r) }

func (w *hypercubeBatch) setup() error {
	detect.ResetCaches()
	if _, err := dataset.Load(cubeCorpus); err != nil {
		return err
	}
	// Priming pass: one cube end to end, so the first timed cube does not
	// pay the corpus's background rasters or first-use code paths.
	_, err := w.generate(cubeOp{Agg: "AVG", Class: "car", Seed: 1 << 32}, 0)
	return err
}

func (w *hypercubeBatch) teardown() {}

// generate runs the batch job for one cube from cold caches, at the given
// parallelism (0 = one worker per CPU, what a default deployment uses).
func (w *hypercubeBatch) generate(op cubeOp, parallelism int) (*core.Profiles, error) {
	q, err := op.query()
	if err != nil {
		return nil, err
	}
	detect.ResetCaches()
	sys := core.New(core.WithSeed(op.Seed), core.WithParallelism(parallelism), core.WithFractionCandidates(cubeStep, cubeMaxFraction))
	return sys.GenerateProfilesCtx(context.Background(), q)
}

// cubeDiff names the cells in which two encoded cubes differ, for a failed
// identity check's message.
func cubeDiff(want, got []byte) string {
	a, errA := profile.LoadHypercube(bytes.NewReader(want))
	b, errB := profile.LoadHypercube(bytes.NewReader(got))
	if errA != nil || errB != nil {
		return fmt.Sprintf("undecodable: %v, %v", errA, errB)
	}
	var cells []string
	n := 0
	for ci := range a.Bounds {
		for ri := range a.Bounds[ci] {
			for fi, x := range a.Bounds[ci][ri] {
				if ci >= len(b.Bounds) || ri >= len(b.Bounds[ci]) || fi >= len(b.Bounds[ci][ri]) {
					return "grids of different shape"
				}
				y := b.Bounds[ci][ri][fi]
				if x == y || (math.IsNaN(x) && math.IsNaN(y)) {
					continue
				}
				if n++; len(cells) < 4 {
					cells = append(cells, fmt.Sprintf("%v@%d f=%v: %v vs %v", a.Combos[ci], a.Resolutions[ri], a.Fractions[fi], x, y))
				}
			}
		}
	}
	return fmt.Sprintf("%d cells differ %v", n, cells)
}

func cubeBytes(p *core.Profiles) ([]byte, error) {
	var buf bytes.Buffer
	err := profile.SaveHypercube(&buf, p.Cube)
	return buf.Bytes(), err
}

// timedCube generates one cube and records it as an attempted op.
func (w *hypercubeBatch) timedCube(op cubeOp) (*core.Profiles, time.Duration) {
	t0 := time.Now()
	p, err := w.generate(op, 0)
	d := time.Since(t0)
	w.b.rec.check(err == nil, "cube %s: %v", op.name(), err)
	return p, d
}

func (w *hypercubeBatch) round(r int) error {
	for i, op := range w.ordered(r) {
		if i > 0 {
			w.b.pace()
		}
		p, d := w.timedCube(op)
		w.b.rec.latency(d)
		w.b.rec.done(1)
		if r == 0 && p != nil {
			data, err := cubeBytes(p)
			w.b.rec.check(err == nil, "cube %s: encoding: %v", op.name(), err)
			w.round0 = append(w.round0, cubeResult{op, data})
		}
	}
	detect.ResetCaches() // see profileCold.round
	return nil
}

// finish checks round 0's cubes: the grid has the planned shape, every
// feasible cell carries a finite bound, and a sequential regeneration of the
// first cube yields the same bytes.
func (w *hypercubeBatch) finish() float64 {
	rec := w.b.rec
	var bounds boundStats
	fractions := len(plan.CandidateFractions(cubeStep, cubeMaxFraction))
	for _, res := range w.round0 {
		cube, err := profile.LoadHypercube(bytes.NewReader(res.bytes))
		if !rec.check(err == nil, "cube %s: %v", res.op.name(), err) {
			continue
		}
		ok := len(cube.Combos) == len(plan.ClassCombos()) && len(cube.Fractions) == fractions
		finite := 0
		for _, plane := range cube.Bounds {
			ok = ok && len(plane) == len(cube.Resolutions)
			for _, row := range plane {
				for _, bound := range row {
					if math.IsInf(bound, 0) || bound < 0 {
						ok = false
					}
					if !math.IsNaN(bound) { // NaN marks an infeasible cell
						bounds.add(bound)
						finite++
					}
				}
			}
		}
		rec.check(ok && finite > 0, "cube %s: malformed grid (%d finite cells)", res.op.name(), finite)
	}
	if len(w.round0) > 0 {
		first := w.round0[0]
		p, err := w.generate(first.op, 1)
		var again []byte
		if err == nil {
			again, err = cubeBytes(p)
		}
		if !rec.check(err == nil && bytes.Equal(again, first.bytes), "cube %s: sequential regeneration differs (%v)", first.op.name(), err) && err == nil {
			rec.note(cubeDiff(first.bytes, again))
		}
	}
	return bounds.mean()
}

// traceRound generates each cube three ways from cold: through core (the
// reference), through the staged driver with spans, and sequentially (for
// parallel.speedup). All three must produce the same bytes.
func (w *hypercubeBatch) traceRound(r int) error {
	for i, op := range w.ordered(r) {
		opID := r*len(w.universe) + i + 1

		before := plan.Stages()
		p, ref := w.timedCube(op)
		if p == nil {
			continue
		}
		if r == 0 {
			w.counts.countOp(before)
		}
		refInvocations := detect.Invocations()
		want, err := cubeBytes(p)
		if !w.b.rec.check(err == nil, "cube %s: encoding: %v", op.name(), err) {
			continue
		}
		w.b.rec.latency(ref)
		w.b.refMS = append(w.b.refMS, ms(ref))

		detect.ResetCaches()
		got, staged, err := w.stagedCube(opID, op)
		if !w.b.rec.check(err == nil, "staged cube %s: %v", op.name(), err) {
			continue
		}
		if !w.b.rec.check(bytes.Equal(got, want), "staged cube %s: bytes differ from core's", op.name()) {
			w.b.rec.note(cubeDiff(want, got))
		}
		w.b.rec.check(detect.Invocations() == refInvocations, "staged cube %s: %d detector invocations, core made %d", op.name(), detect.Invocations(), refInvocations)
		w.b.tracedMS = append(w.b.tracedMS, ms(staged))

		t0 := time.Now()
		seq, err := w.generate(op, 1)
		sequential := time.Since(t0)
		var seqBytes []byte
		if err == nil {
			seqBytes, err = cubeBytes(seq)
		}
		if !w.b.rec.check(err == nil && bytes.Equal(seqBytes, want), "cube %s: sequential bytes differ (%v)", op.name(), err) && err == nil {
			w.b.rec.note(cubeDiff(want, seqBytes))
		}
		w.speedups = append(w.speedups, sequential.Seconds()/ref.Seconds())
	}
	return nil
}

// stagedCube is core.GenerateProfilesCtx taken apart: correction set, plan,
// deduplicated detector units, then the product's own executor over warm
// columns.
func (w *hypercubeBatch) stagedCube(opID int, op cubeOp) ([]byte, time.Duration, error) {
	tr := w.b.tr
	ctx := context.Background()
	first := len(tr.spans)
	st := &stager{b: w.b, gen: daemonGenerator()}

	var q *query.Query
	if _, err := tr.run("query.parse", opID, 0, func() error {
		var err error
		q, err = op.query()
		return err
	}); err != nil {
		return nil, 0, err
	}
	rs := &resolved{q: q, fractions: plan.CandidateFractions(cubeStep, cubeMaxFraction)}
	rs.req.Seed = op.Seed
	if _, err := tr.run("core.resolve", opID, 0, func() error {
		var err error
		rs.spec, err = core.New().Resolve(q)
		return err
	}); err != nil {
		return nil, 0, err
	}
	spec, root := rs.spec, stats.NewStream(op.Seed)

	corr, err := st.correction(ctx, opID, rs, true)
	if err != nil {
		return nil, 0, err
	}
	var hp *plan.Hypercube
	if err := st.coldWarm("plan.build_hypercube", "detect.presence_scan", opID, func() error {
		var err error
		hp, err = plan.BuildHypercube(ctx, spec.Video, spec.Model, rs.fractions, root.Child(2))
		return err
	}); err != nil {
		return nil, 0, err
	}
	units := hp.Units()
	if _, err := tr.run("outputs.ensure", opID, 0, func() error {
		return parallel.ForCtx(ctx, len(units), 0, func(i int) error {
			return outputs.Ensure(ctx, spec.Video, spec.Model, spec.Class, units[i].Resolution, units[i].Frames)
		})
	}); err != nil {
		return nil, 0, err
	}
	for _, u := range units {
		w.targets = append(w.targets, probeTarget{spec.Video, spec.Model, spec.Class, u.Resolution, u.Frames})
	}
	var cube *profile.Hypercube
	if _, err := tr.run("profile.sweep_residual", opID, 0, func() error {
		var err error
		cube, err = profile.GenerateHypercubeCtx(ctx, spec, profile.HypercubeOptions{
			Fractions: rs.fractions, Correction: corr, Parallelism: 0,
		}, root.Child(2))
		return err
	}); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if _, err := tr.run("profile.save", opID, 0, func() error { return profile.SaveHypercube(&buf, cube) }); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), topLevelSince(tr, first), nil
}

func (w *hypercubeBatch) layerMetrics() {
	w.counts.report(w.b)
	st := &stager{b: w.b, targets: w.targets}
	// One target per resolution of the first cube is enough for the kernel
	// probes; every cube plans the same ten resolutions.
	if n := len(plan.CandidateResolutions(detect.YOLOv4Sim())); len(st.targets) > n {
		st.targets = st.targets[:n]
	}
	st.report()
	w.b.layer("parallel.speedup", median(w.speedups))
	reportCaches(w.b)
	if col, err := truthColumn(cubeCorpus, "car"); err == nil {
		estimatorProbes(w.b, col)
	}
}
