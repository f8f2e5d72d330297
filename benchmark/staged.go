package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"time"

	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
	"smokescreen/internal/store"
)

// The staged driver. The product records no spans of its own, so a traced
// run cannot see inside SystemGenerator.Generate or GenerateProfilesCtx.
// Instead it performs the same generation through the layers' public
// functions, in production order and with the production stream children,
// with a span around each call — and proves it did the same work by
// comparing bytes and detector invocations with the untouched call.
//
// Where production detects lazily inside another layer's call (correction
// sets read native columns as they grow; planning runs presence scans), the
// driver runs the call again warm, marked as a probe, and carves the
// difference out of the cold span as detector time.

// probeTarget is where a staged op's detector work happened: the inputs the
// kernel probes time afterwards.
type probeTarget struct {
	video      *scene.Video // the corpus as the op's setting observes it
	model      *detect.Model
	class      scene.Class
	resolution int
	frames     []int
}

type stager struct {
	b       *bench
	gen     *server.SystemGenerator
	scratch *store.Store
	targets []probeTarget
	atUS    []float64 // warm outputs.At reads
}

func newStager(b *bench, gen *server.SystemGenerator, storeDir string) (*stager, error) {
	st, err := openStore(storeDir)
	if err != nil {
		return nil, err
	}
	return &stager{b: b, gen: gen, scratch: st}, nil
}

// resolved is a request after the daemon's resolve step.
type resolved struct {
	req       server.GenRequest
	q         *query.Query
	spec      *profile.Spec
	fractions []float64
}

// resolve mirrors SystemGenerator.resolve: normalize, parse, canonicalize
// the restricted-class order, bind corpus and model.
func resolveRequest(req server.GenRequest) (*resolved, error) {
	req.Normalize()
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	sort.Slice(q.Setting.Restricted, func(i, j int) bool {
		return q.Setting.Restricted[i].String() < q.Setting.Restricted[j].String()
	})
	spec, err := core.New(core.WithSeed(req.Seed)).Resolve(q)
	if err != nil {
		return nil, err
	}
	return &resolved{req: req, q: q, spec: spec, fractions: plan.CandidateFractions(req.Step, req.MaxFraction)}, nil
}

// coldWarm runs fn cold inside a span, runs it again warm as a probe, and
// carves the difference out of the cold span under detectName. fn must be
// idempotent given warm caches.
func (s *stager) coldWarm(name, detectName string, op int, fn func() error) error {
	tr := s.b.tr
	id := tr.begin(name, op, 0)
	err := fn()
	cold := tr.end(id)
	if err != nil {
		return err
	}
	warm, err := tr.run("probe."+name+"_warm", op, 0, fn)
	if err != nil {
		return err
	}
	tr.carve(detectName, id, cold-warm)
	return nil
}

// generate answers one daemon request through the layers and returns the
// payload SystemGenerator.Generate would, with the time the op's top-level
// spans cover.
func (s *stager) generate(op int, req server.GenRequest) ([]byte, time.Duration, error) {
	tr := s.b.tr
	ctx := context.Background()
	first := len(tr.spans)

	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	if _, err := tr.run("server.decode", op, 0, func() error {
		_, err := server.DecodeGenRequest(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, 0, err
	}
	if _, err := tr.run("query.parse", op, 0, func() error {
		_, err := query.Parse(req.Query)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var key string
	if _, err := tr.run("server.key", op, 0, func() error {
		var err error
		key, _, err = s.gen.Key(req)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var rs *resolved
	if _, err := tr.run("core.resolve", op, 0, func() error {
		var err error
		rs, err = resolveRequest(req)
		return err
	}); err != nil {
		return nil, 0, err
	}

	var prof *profile.Profile
	if req.Ladder != "" {
		prof, err = s.ladder(ctx, op, rs)
	} else {
		prof, err = s.sweep(ctx, op, rs)
	}
	if err != nil {
		return nil, 0, err
	}

	var buf bytes.Buffer
	if _, err := tr.run("profile.save", op, 0, func() error { return profile.SaveProfile(&buf, prof) }); err != nil {
		return nil, 0, err
	}
	payload := buf.Bytes()
	if _, err := tr.run("store.put", op, 0, func() error { return s.scratch.Put(key, payload) }); err != nil {
		return nil, 0, err
	}
	if _, err := tr.run("store.get", op, 0, func() error {
		_, err := s.scratch.Get(key)
		return err
	}); err != nil {
		return nil, 0, err
	}
	return payload, topLevelSince(tr, first), nil
}

// topLevelSince sums the op-level spans recorded since index first, probes
// excluded: the staged op's latency.
func topLevelSince(tr *tracer, first int) time.Duration {
	var total time.Duration
	for _, sp := range tr.spans[first:] {
		if sp.Parent == 0 && !isProbe(sp.Name) {
			total += sp.dur()
		}
	}
	return total
}

// correction builds the op's correction set the way the daemon does, when
// any setting it covers is non-random.
func (s *stager) correction(ctx context.Context, op int, rs *resolved, needed bool) (*estimate.Correction, error) {
	if !needed {
		return nil, nil
	}
	var corr *estimate.Correction
	err := s.coldWarm("profile.correction", "detect.correction_frames", op, func() error {
		res, err := profile.ConstructCorrectionCtx(ctx, rs.spec, s.gen.CorrectionLimit, stats.NewStream(rs.req.Seed).Child(1))
		if err == nil {
			corr = res.Correction
		}
		return err
	})
	return corr, err
}

func (s *stager) sweep(ctx context.Context, op int, rs *resolved) (*profile.Profile, error) {
	tr := s.b.tr
	spec := rs.spec
	base := rs.q.Setting
	base.SampleFraction = rs.fractions[0]
	corr, err := s.correction(ctx, op, rs, !base.IsRandomOnly(spec.Model))
	if err != nil {
		return nil, err
	}

	stream := func() *stats.Stream { return stats.NewStream(rs.req.Seed).Child(3) }
	var sw *plan.Sweep
	if err := s.coldWarm("plan.build_sweep", "detect.presence_scan", op, func() error {
		var err error
		sw, err = plan.BuildSweep(ctx, spec.Video, spec.Model, plan.SweepSpec{Fractions: rs.fractions, Base: rs.q.Setting}, stream())
		return err
	}); err != nil {
		return nil, err
	}
	var effective *scene.Video
	if _, err := tr.run("degrade.effective_video", op, 0, func() error {
		effective = degrade.EffectiveVideo(spec.Video, sw.Tasks[len(sw.Tasks)-1].Plan.Setting)
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := tr.run("outputs.ensure", op, 0, func() error {
		return outputs.Ensure(ctx, effective, spec.Model, spec.Class, sw.Resolution, sw.Frames())
	}); err != nil {
		return nil, err
	}
	s.targets = append(s.targets, probeTarget{effective, spec.Model, spec.Class, sw.Resolution, sw.Frames()})

	var prof *profile.Profile
	_, err = tr.run("profile.sweep_residual", op, 0, func() error {
		var err error
		prof, err = profile.SweepFractionsCtx(ctx, spec, profile.SweepOptions{
			Fractions:      rs.fractions,
			Setting:        rs.q.Setting,
			Correction:     corr,
			EarlyStopDelta: rs.req.EarlyStop,
			Parallelism:    s.gen.Parallelism,
		}, stream())
		return err
	})
	return prof, err
}

func (s *stager) ladder(ctx context.Context, op int, rs *resolved) (*profile.Profile, error) {
	tr := s.b.tr
	spec := rs.spec
	ladder, err := plan.LadderByName(rs.req.Ladder, spec.Model)
	if err != nil {
		return nil, err
	}
	needsRepair := false
	for _, tier := range ladder.Tiers {
		needsRepair = needsRepair || !tier.Setting.IsRandomOnly(spec.Model)
	}
	corr, err := s.correction(ctx, op, rs, needsRepair)
	if err != nil {
		return nil, err
	}

	stream := func() *stats.Stream { return stats.NewStream(rs.req.Seed).Child(3) }
	var lp *plan.LadderPlan
	if err := s.coldWarm("plan.build_ladder", "detect.presence_scan", op, func() error {
		var err error
		lp, err = plan.BuildLadder(ctx, spec.Video, spec.Model, ladder, stream())
		return err
	}); err != nil {
		return nil, err
	}
	for _, unit := range lp.Units() {
		var effective *scene.Video
		if _, err := tr.run("degrade.effective_video", op, 0, func() error {
			effective = degrade.EffectiveVideo(spec.Video, unit.Setting)
			return nil
		}); err != nil {
			return nil, err
		}
		if _, err := tr.run("outputs.ensure", op, 0, func() error {
			return outputs.Ensure(ctx, effective, spec.Model, spec.Class, unit.Resolution, unit.Frames)
		}); err != nil {
			return nil, err
		}
		s.targets = append(s.targets, probeTarget{effective, spec.Model, spec.Class, unit.Resolution, unit.Frames})
	}

	var prof *profile.Profile
	_, err = tr.run("profile.sweep_residual", op, 0, func() error {
		var err error
		prof, err = profile.GenerateLadderCtx(ctx, spec, ladder, profile.LadderOptions{
			Correction: corr, Parallelism: s.gen.Parallelism,
		}, stream())
		return err
	})
	return prof, err
}

// afterOp reads the columns the op just filled, warm: the price of a column
// read when no detection is needed (what serve_mix pays instead of detect).
func (s *stager) afterOp() {
	if len(s.targets) == 0 {
		return
	}
	t := s.targets[len(s.targets)-1]
	t0 := time.Now()
	if _, err := outputs.At(context.Background(), t.video, t.model, t.class, t.resolution, t.frames); err == nil {
		s.atUS = append(s.atUS, us(time.Since(t0)))
	}
}

// layerGroups assigns each span name to the layer whose self time it
// counts towards.
var layerGroups = map[string]string{
	"outputs.ensure":           "detect",
	"detect.correction_frames": "detect",
	"detect.presence_scan":     "presence",
	"plan.build_sweep":         "plan",
	"plan.build_ladder":        "plan",
	"plan.build_hypercube":     "plan",
	"profile.correction":       "estimate",
	"profile.sweep_residual":   "estimate",
}

// report turns the staged ops' spans into per-layer metrics and runs the
// kernel probes on the frames those ops detected.
func (s *stager) report() {
	b, tr := s.b, s.b.tr
	p50 := func(name string) float64 { return median(tr.durations(name)) }
	b.layer("server.decode_us_p50", p50("server.decode")*1e3)
	b.layer("query.parse_us_p50", p50("query.parse")*1e3)
	b.layer("server.key_us_p50", p50("server.key")*1e3)
	b.layer("plan.build_sweep_ms_p50", p50("plan.build_sweep"))
	b.layer("plan.build_ladder_ms_p50", p50("plan.build_ladder"))
	b.layer("plan.build_hypercube_ms_p50", p50("plan.build_hypercube"))
	b.layer("degrade.effective_video_ms_p50", p50("degrade.effective_video"))
	b.layer("outputs.ensure_ms_p50", p50("outputs.ensure"))
	b.layer("profile.correction_ms_p50", p50("profile.correction"))
	b.layer("profile.sweep_residual_ms_p50", p50("profile.sweep_residual"))
	b.layer("profile.save_us_p50", p50("profile.save")*1e3)
	b.layer("store.put_us_p50", p50("store.put")*1e3)
	b.layer("store.get_mem_us_p50", p50("store.get")*1e3)
	b.layer("outputs.at_us_p50", median(s.atUS))

	self, total := tr.selfTimes()
	if total > 0 {
		share := map[string]float64{}
		for name, d := range self {
			share[layerGroups[name]] += d.Seconds() / total.Seconds()
		}
		// Presence scans are detector work that runs inside the plan.Build*
		// call: detect's share counts them, and so does the separate
		// presence share, which added to plan's own share gives the time
		// spent inside planning calls.
		b.layer("detect.stage_share", share["detect"]+share["presence"])
		b.layer("plan.presence_scan_share", share["presence"])
		b.layer("plan.stage_share", share["plan"])
		b.layer("estimate.stage_share", share["estimate"])
	}
	kernelProbes(b, s.targets)
}
