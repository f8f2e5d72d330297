package smokescreen_test

// The soundness table: every claim the product makes with probability
// 1 − δ, audited in one place. A row yields trials — an estimate the
// product would print, audited against native truth by estimate.Audit, the
// paper's metric — and carries the number of violations it allows. One
// runner counts them; a failing row logs the cell and seed that reproduce
// each violation.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"smokescreen"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/multicam"
	"smokescreen/internal/outputs"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
	"smokescreen/internal/stream"
)

// trial is one audited estimate; label reproduces it.
type trial struct {
	label string
	est   estimate.Estimate
	audit estimate.Audited
}

type soundnessRow struct {
	name string
	// allowed is how many of n trials may violate their bound.
	allowed func(n int) float64
	trials  func(t *testing.T) []trial
}

// binomial allows three standard deviations above the binomial mean nδ:
// the violations n independent bounds at confidence 1 − δ may reach.
func binomial(delta float64) func(int) float64 {
	return func(n int) float64 {
		nf := float64(n)
		return nf*delta + 3*math.Sqrt(nf*delta*(1-delta))
	}
}

// nineTenths requires at least 9 of every 10 trials covered.
func nineTenths(n int) float64 { return float64(n - n*9/10) }

// none allows no violation: exact answers.
func none(int) float64 { return 0 }

func TestSoundness(t *testing.T) {
	for _, row := range soundnessRows() {
		t.Run(row.name, func(t *testing.T) {
			trials := row.trials(t)
			violated := 0
			for _, tr := range trials {
				if !tr.audit.Held {
					violated++
					t.Logf("%s: bound %.4f below true error %.4f", tr.label, tr.est.ErrBound, tr.audit.TrueError)
				}
			}
			allowed := row.allowed(len(trials))
			report := t.Logf
			if float64(violated) > allowed {
				report = t.Errorf
			}
			report("%d of %d trials violated their bound; the row allows %.1f", violated, len(trials), allowed)
		})
	}
}

func soundnessRows() []soundnessRow {
	delta := estimate.DefaultParams().Delta
	shapes := []struct{ span, stride int }{{300, 300}, {300, 150}}
	rows := []soundnessRow{
		// Windows of a SAMPLE-only stream (ROADMAP item 1c's random-only
		// rows), replayed from the column the receiver folds.
		{"stream/random-only", binomial(delta), func(t *testing.T) []trial {
			var out []trial
			for _, cell := range []struct {
				fraction float64
				seeds    []uint64
			}{{0.1, []uint64{1, 2, 3}}, {0.3, []uint64{1, 2}}} {
				for _, seed := range cell.seeds {
					for _, shape := range shapes {
						rs := resolveStream(t, streamRequest(cell.fraction, shape.span, shape.stride, seed))
						out = append(out, auditWindows(t, rs, replayWindows(t, rs))...)
					}
				}
			}
			return out
		}},
		// At SAMPLE 1.0 a window is its population: exact, under a zero
		// bound.
		{"stream/SAMPLE 1.0", none, func(t *testing.T) []trial {
			var out []trial
			for _, shape := range shapes {
				rs := resolveStream(t, streamRequest(1, shape.span, shape.stride, 1))
				for _, tr := range auditWindows(t, rs, replayWindows(t, rs)) {
					if tr.est.Value != tr.audit.Truth || tr.est.ErrBound != 0 {
						t.Errorf("%s: %v (err <= %v), exact answer %v", tr.label, tr.est.Value, tr.est.ErrBound, tr.audit.Truth)
					}
					out = append(out, tr)
				}
			}
			return out
		}},
	}
	// The real pipeline, one row per window shape: camera, wire and
	// receiver emit exactly the windows the replay rows audit.
	for _, shape := range shapes {
		rows = append(rows, soundnessRow{fmt.Sprintf("stream/loopback %d/%d", shape.span, shape.stride), binomial(delta), func(t *testing.T) []trial {
			rs := resolveStream(t, streamRequest(0.1, shape.span, shape.stride, 1))
			want := replayWindows(t, rs)
			got := loopbackWindows(t, rs)
			if len(got) != len(want) {
				t.Fatalf("receiver emitted %d windows, replay %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("window %d: receiver %+v, replay %+v", i, got[i], want[i])
				}
			}
			return auditWindows(t, rs, got)
		}})
	}
	// A camera fleet's recombined bound (multicam at δ/K per camera) over
	// fleets mixing SAMPLE-only, RESOLUTION, REMOVE and NOISE cameras on the
	// four fast corpora: %[1]s is the aggregate's SELECT clause, %[2]s an
	// optional WHERE clause.
	fleets := [][]string{
		{"%s FROM small%s SAMPLE 0.3 RESOLUTION 160", "%s FROM highway%s SAMPLE 0.1"},
		{"%s FROM mvi-40771%s SAMPLE 0.4 RESOLUTION 320", "%s FROM mvi-40775%s SAMPLE 0.15"},
		{"%s FROM small%s SAMPLE 0.2 NOISE 0.05", "%s FROM highway%s SAMPLE 0.2 REMOVE person", "%s FROM mvi-40775%s SAMPLE 0.2"},
		{"%s FROM mvi-40771%s SAMPLE 0.04 REMOVE person", "%s FROM small%s SAMPLE 0.3"},
	}
	for _, agg := range []struct{ name, selectClause, where string }{
		{"AVG", "SELECT AVG(count(car))", ""},
		{"SUM", "SELECT SUM(count(car))", ""},
		{"COUNT", "SELECT COUNT(*)", " WHERE count(car) >= 2"},
	} {
		rows = append(rows, soundnessRow{"multicam/" + agg.name, binomial(delta), func(t *testing.T) []trial {
			return fleetTrials(t, fleets, agg.selectClause, agg.where, 18)
		}})
	}
	// One query's executed estimate (profile.Spec.EstimateSettingCtx):
	// random-only, and repaired by a correction set under RESOLUTION and
	// NOISE.
	rows = append(rows,
		soundnessRow{"profile/SAMPLE 0.2", nineTenths, func(t *testing.T) []trial {
			root := stats.NewStream(101)
			return settingTrials(t, degrade.Setting{SampleFraction: 0.2}, nil, 60, func(i int) *stats.Stream { return root.Child(uint64(i)) })
		}},
		soundnessRow{"profile/SAMPLE 0.3 RESOLUTION 96 repaired", nineTenths, func(t *testing.T) []trial {
			root := stats.NewStream(103)
			corr := correctionSet(t, root.Child(999))
			return settingTrials(t, degrade.Setting{SampleFraction: 0.3, Resolution: 96}, corr, 40, func(i int) *stats.Stream { return root.Child(uint64(i)) })
		}},
		soundnessRow{"profile/SAMPLE 0.3 NOISE 0.2 repaired", nineTenths, func(t *testing.T) []trial {
			root := stats.NewStream(211)
			corr := correctionSet(t, root.Child(1))
			return settingTrials(t, degrade.Setting{SampleFraction: 0.3, NoiseSigma: 0.2}, corr, 30, func(i int) *stats.Stream { return root.Child(uint64(2 + i)) })
		}},
		// Hosseini et al. (PAPERS.md) blind a fixed-stride sampler by
		// putting content only at its period. The seeded without-replacement
		// sampler degrade.ApplyCtx draws with is not one: its bound holds.
		soundnessRow{"periodic insertion/SAMPLE 0.1", binomial(delta), periodicTrials},
	)
	return rows
}

// streamRequest is a two-session SAMPLE-only stream over small at native
// resolution; drift is off, as no row reads it.
func streamRequest(fraction float64, span, stride int, seed uint64) server.StreamRequest {
	return server.StreamRequest{
		Query:        fmt.Sprintf("SELECT AVG(count(car)) FROM small SAMPLE %g", fraction),
		Window:       span,
		Stride:       stride,
		Loops:        2,
		Seed:         seed,
		DisableDrift: true,
	}
}

func resolveStream(t *testing.T, req server.StreamRequest) *server.ResolvedStream {
	t.Helper()
	rs, err := server.ResolveStream(req)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// replayWindows computes the windows stream.Receiver emits for rs without a
// camera: session i's plan is degrade.ApplyCtx on stats.NewStream(seed+i),
// the draw camera.Node.StreamCtx makes under stream.Loopback; a delivered
// frame's count is read from the column of the receiver's source at the
// plan's resolution; and windows complete, in arrival order, as the
// receiver completes them.
func replayWindows(t *testing.T, rs *server.ResolvedStream) []stream.WindowResult {
	t.Helper()
	ctx := context.Background()
	cfg, node, req := rs.Config, rs.Node, rs.Request
	w, err := estimate.NewWindow(cfg.Agg, cfg.WindowSpan, cfg.Params, true)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.WindowResult
	seq := 0
	completeThrough := func(limit int) {
		for ; seq*cfg.WindowStride+cfg.WindowSpan <= limit; seq++ {
			lo := seq * cfg.WindowStride
			w.Advance(lo)
			out = append(out, stream.WindowResult{Seq: seq, Lo: lo, Hi: lo + cfg.WindowSpan, Estimate: w.Current(), Frames: w.Count()})
		}
	}
	base := 0
	for i := 0; i < req.Loops; i++ {
		plan, err := degrade.ApplyCtx(ctx, node.Video, node.Model, node.Setting, stats.NewStream(req.Seed+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		column, err := outputs.Full(ctx, cfg.Sources[min(i, len(cfg.Sources)-1)], cfg.Model, cfg.Class, plan.Resolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range plan.Sampled {
			completeThrough(base + f)
			w.ObserveFrame(base+f, column[f]) // a stale frame is refused, as the receiver drops it
		}
		base += plan.Total
	}
	completeThrough(base)
	if want := (base-cfg.WindowSpan)/cfg.WindowStride + 1; len(out) != want {
		t.Fatalf("%d windows, want %d", len(out), want)
	}
	return out
}

// loopbackWindows runs rs through the real pipeline — ResolvedStream.Run,
// camera sessions over stream.Loopback into stream.Receiver — and returns
// the windows the receiver emitted.
func loopbackWindows(t *testing.T, rs *server.ResolvedStream) []stream.WindowResult {
	t.Helper()
	var emitted []stream.WindowResult
	rs.Config.OnWindow = func(res stream.WindowResult) { emitted = append(emitted, res) }
	recv, err := stream.New(rs.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Run(context.Background(), recv); err != nil {
		t.Fatal(err)
	}
	return emitted
}

// auditWindows audits each window of rs against its full-sample
// population: the clean corpus's native column at the window's positions.
func auditWindows(t *testing.T, rs *server.ResolvedStream, windows []stream.WindowResult) []trial {
	t.Helper()
	m, req := rs.Node.Model, rs.Request
	full, err := outputs.Full(context.Background(), rs.Node.Video, m, rs.Config.Class, m.NativeInput)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trial, 0, len(windows))
	for _, res := range windows {
		population := make([]float64, 0, res.Hi-res.Lo)
		for pos := res.Lo; pos < res.Hi; pos++ {
			population = append(population, full[pos%len(full)])
		}
		audit, err := estimate.Audit(rs.Config.Agg, res.Estimate, population, rs.Config.Params)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s window %d/%d seed %d [%d,%d)", req.Query, req.Window, req.Stride, req.Seed, res.Lo, res.Hi)
		out = append(out, trial{label, res.Estimate, audit})
	}
	return out
}

// fleetTrials runs every fleet, its camera queries formatted with the
// aggregate's clauses, under system seeds 1..seeds. Each fleet bound must be
// finite in [0, 1] (or the conservative (0, 1) pair) over a positive truth.
func fleetTrials(t *testing.T, fleets [][]string, selectClause, where string, seeds int) []trial {
	t.Helper()
	var out []trial
	for _, fleet := range fleets {
		texts := make([]string, len(fleet))
		cameras := make([]multicam.Camera, len(fleet))
		for i, format := range fleet {
			texts[i] = fmt.Sprintf(format, selectClause, where)
			q, err := smokescreen.ParseQuery(texts[i])
			if err != nil {
				t.Fatal(err)
			}
			cameras[i] = multicam.Camera{Name: fmt.Sprintf("cam%d", i), Query: q}
		}
		for seed := 1; seed <= seeds; seed++ {
			f, err := multicam.New(smokescreen.New(smokescreen.WithSeed(uint64(seed))), cameras...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.QueryCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			e := res.Estimate
			label := fmt.Sprintf("%q seed %d", texts, seed)
			if !(e.ErrBound >= 0 && e.ErrBound <= 1) || (e.ErrBound == 1 && e.Value != 0) {
				t.Fatalf("%s: bound %v (value %v) neither finite below 1 nor the conservative pair", label, e.ErrBound, e.Value)
			}
			audit, err := f.Audit(e)
			if err != nil {
				t.Fatal(err)
			}
			if audit.Truth <= 0 {
				t.Fatalf("%s: truth %v", label, audit.Truth)
			}
			out = append(out, trial{label, e, audit})
		}
	}
	return out
}

// smallSpec is AVG(count(car)) over small with YOLOv4Sim at the paper's
// default parameters.
func smallSpec() *profile.Spec {
	return &profile.Spec{
		Video:  dataset.MustLoad("small"),
		Model:  detect.YOLOv4Sim(),
		Class:  scene.Car,
		Agg:    estimate.AVG,
		Params: estimate.DefaultParams(),
	}
}

func correctionSet(t *testing.T, s *stats.Stream) *estimate.Correction {
	t.Helper()
	res, err := profile.ConstructCorrectionCtx(context.Background(), smallSpec(), 1, s)
	if err != nil {
		t.Fatal(err)
	}
	return res.Correction
}

// settingTrials executes setting n times over smallSpec, trial i drawing
// from stream(i).
func settingTrials(t *testing.T, setting degrade.Setting, corr *estimate.Correction, n int, stream func(int) *stats.Stream) []trial {
	t.Helper()
	s := smallSpec()
	out := make([]trial, 0, n)
	for i := 0; i < n; i++ {
		est, err := s.EstimateSettingCtx(context.Background(), setting, corr, stream(i))
		if err != nil {
			t.Fatal(err)
		}
		audit, err := s.Audit(est)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, trial{fmt.Sprintf("%v trial %d", setting, i), est, audit})
	}
	return out
}

// periodicTrials samples a 1 200-frame count column whose objects sit only
// on every 10th frame at f = 0.1 — the period a fixed-stride sampler would
// use — with the sampler degrade.ApplyCtx uses, under seeds 1..200.
func periodicTrials(t *testing.T) []trial {
	t.Helper()
	const frames, period = 1200, 10
	column := make([]float64, frames)
	for i := 0; i < frames; i += period {
		column[i] = float64(1 + (i/period)%4)
	}
	params := estimate.DefaultParams()
	n := frames / period
	// The column does blind a fixed stride: every 10th frame from 0 sees
	// only objects, and its bound fails.
	stride := make([]float64, 0, n)
	for i := 0; i < frames; i += period {
		stride = append(stride, column[i])
	}
	if est, err := estimate.Smokescreen(estimate.AVG, stride, frames, params); err != nil {
		t.Fatal(err)
	} else if audit, _ := estimate.Audit(estimate.AVG, est, column, params); audit.Held {
		t.Fatalf("a stride-%d sample holds its bound (%+v): the column is not adversarial", period, audit)
	}
	out := make([]trial, 0, 200)
	for seed := uint64(1); seed <= 200; seed++ {
		idx := stats.NewStream(seed).SampleWithoutReplacement(frames, n)
		sample := make([]float64, len(idx))
		for i, j := range idx {
			sample[i] = column[j]
		}
		est, err := estimate.Smokescreen(estimate.AVG, sample, frames, params)
		if err != nil {
			t.Fatal(err)
		}
		audit, err := estimate.Audit(estimate.AVG, est, column, params)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, trial{fmt.Sprintf("seed %d", seed), est, audit})
	}
	return out
}
