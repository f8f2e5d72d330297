package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
	"smokescreen/internal/store"
)

// profile_cold: one daemon, one administrator, every request a miss.
//
// Each op is a POST /v1/profiles for a key the store has never seen, with
// every detector cache dropped first, so the request pays the whole pipeline:
// plan, view/render, detect, estimate, store put. Scene, raster and detect
// kernels do almost all of the work; store, server and fleetd almost none.

// genOp is one profile-generation request and what its answer must look like.
type genOp struct {
	Name   string            `json:"name"`
	Req    server.GenRequest `json:"req"`
	Points int               `json:"points"`
}

// The sweep every cold request asks for: five fractions up to 10 %. The
// daemon's default (twenty up to 20 %) costs twice the detector work per op
// and would leave a ten-second run with too few ops for a steady median.
const (
	coldStep        = 0.02
	coldMaxFraction = 0.1
)

var (
	coldCorpora = []string{"small", "mvi-40775"}
	coldClasses = []string{"car", "person"}
	coldAxes    = []string{"", "RESOLUTION 96", "RESOLUTION 160", "RESOLUTION 224",
		"BLUR 5", "QUANTIZE 16", "OCCLUDE 0.1", "NOISE 0.05", "REMOVE face"}
)

// meanAggs are the aggregates a request that builds a correction set (any
// non-random axis, every hypercube) may ask for; extremumAggs go with
// random-only requests, which build none. The split routes around a product
// defect, left alone here (README, "What the first traces found"):
// estimate.Correction sorts its sample lazily, unlocked, on the first rank
// query, and the parallel estimate stage's first two tasks make that query at
// the same moment. One of them can rank against a half-sorted copy, so the
// same MAX/MIN request now and then seals a different bound — which fails the
// byte-identity checks and moves err_bound_mean. A workload must not contain
// ops that fail.
var (
	meanAggs     = []string{"AVG", "SUM"}
	extremumAggs = []string{"MAX", "MIN"}
)

// coldUniverse is one round's request set: both corpora (320 and 640 pixel
// frames) under every intervention axis, classes and aggregates cycling —
// extrema on the random-only axis, AVG and SUM alternating over the rest —
// plus one fidelity-ladder request (1 in 19, the rare expensive artifact).
// The set does not depend on the run's seed — the seed orders it — so every
// run of every seed measures the same work.
func coldUniverse(tiny bool) []genOp {
	points := len(plan.CandidateFractions(coldStep, coldMaxFraction))
	var ops []genOp
	k := 0
	for _, axis := range coldAxes {
		for _, corpus := range coldCorpora {
			class, agg := coldClasses[k%len(coldClasses)], meanAggs[(k/2)%len(meanAggs)]
			if axis == "" {
				agg = extremumAggs[k%len(extremumAggs)]
			}
			k++
			if tiny && (corpus != "small" || k%4 != 1) {
				continue
			}
			req := genRequest(agg, class, corpus, axis)
			req.Step, req.MaxFraction = coldStep, coldMaxFraction
			ops = append(ops, genOp{Name: fmt.Sprintf("%s/%s/%s/%s", corpus, class, agg, axis), Req: req, Points: points})
		}
	}
	// The default ladder's last tier removes persons, which leaves 8 of
	// small's 1200 frames — fewer than the tier's 2 % sample — so the daemon
	// returns the three feasible tiers.
	ladder := genRequest("AVG", "car", "small", "")
	ladder.Ladder = "default"
	ops = append(ops, genOp{Name: "small/car/AVG/ladder", Req: ladder, Points: len(plan.DefaultLadder(detect.YOLOv4Sim()).Tiers) - 1})
	return ops
}

// genRequest spells a daemon request in the query language; axis is an
// intervention clause ("RESOLUTION 160") or empty.
func genRequest(agg, class, corpus, axis string) server.GenRequest {
	return server.GenRequest{Query: strings.TrimSpace(fmt.Sprintf("SELECT %s(count(%s)) FROM %s %s", agg, class, corpus, axis))}
}

// orderedRound returns the universe in the order the run's seed gives round
// r. Every round asks for the same requests (request seed 1): the rounds of
// a run, and the runs of a commit, all do the same work, so their medians
// compare. The workload deletes a round's keys from the store afterwards,
// which makes the next round's requests misses again.
func orderedRound(universe []genOp, seed uint64, r int) []genOp {
	perm := stats.NewStream(seed).ChildN(0x0b5, uint64(r)).Perm(len(universe))
	ops := make([]genOp, len(universe))
	for i, j := range perm {
		ops[i] = universe[j]
		ops[i].Req.Seed = 1
	}
	return ops
}

type profileCold struct {
	b        *bench
	universe []genOp
	gen      *server.SystemGenerator

	dir    string
	store  *store.Store
	svc    *server.Server
	http   *listener
	client *server.Client
	jobs   int // generations this daemon has run, for job-id lookups

	round0 []served
	stage  *stager
	counts genCounts
	// Per-op samples of the traced run's reference pass.
	httpOverheadMS, queueWaitMS []float64
}

func newProfileCold(b *bench) *profileCold {
	return &profileCold{b: b, universe: coldUniverse(b.opts.Tiny), gen: daemonGenerator()}
}

func (w *profileCold) opList(r int) any { return orderedRound(w.universe, w.b.opts.Seed, r) }

func (w *profileCold) setup() error {
	detect.ResetCaches()
	for _, name := range coldCorpora {
		if _, err := dataset.Load(name); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(w.b.tmp, "cold-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.store, err = openStore(filepath.Join(dir, "store")); err != nil {
		return err
	}
	cfg := daemonServerConfig()
	cfg.Store, cfg.Generator = w.store, w.gen
	if w.svc, err = server.New(cfg); err != nil {
		return err
	}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	w.http = serve(ln, w.svc.Handler())
	w.client = newClient(w.http.url)
	w.jobs = 0

	// Priming pass: one request per corpus through the whole path, so the
	// first timed op does not pay the connection, the corpus's background
	// rasters, or first-use code paths. The seed is one no round uses.
	for _, corpus := range coldCorpora {
		if w.b.opts.Tiny && corpus != "small" {
			continue
		}
		req := genRequest("AVG", "car", corpus, "RESOLUTION 96")
		req.Seed, req.Step, req.MaxFraction = 1<<32, coldStep, coldMaxFraction
		if _, _, err := w.client.GenerateRaw(context.Background(), req); err != nil {
			return fmt.Errorf("priming %s: %w", corpus, err)
		}
		w.jobs++
	}
	return nil
}

func (w *profileCold) teardown() {
	if w.client != nil {
		closeClient(w.client)
		w.client = nil
	}
	if w.http != nil {
		w.http.stop()
		w.http = nil
	}
	if w.svc != nil {
		_ = w.svc.Close() // nothing is queued: every POST above was synchronous
		w.svc = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// post sends one cold request and records it as an attempted op.
func (w *profileCold) post(op genOp) (served, time.Duration) {
	detect.ResetCaches()
	t0 := time.Now()
	payload, key, err := w.client.GenerateRaw(context.Background(), op.Req)
	d := time.Since(t0)
	w.jobs++
	w.b.rec.check(err == nil, "POST %s: %v", op.Name, err)
	return served{op: op, key: key, payload: payload}, d
}

func (w *profileCold) round(r int) error {
	if r > 0 {
		w.forgetRound0()
	}
	for i, op := range orderedRound(w.universe, w.b.opts.Seed, r) {
		if i > 0 {
			w.b.pace()
		}
		s, d := w.post(op)
		w.b.rec.latency(d)
		w.b.rec.done(1)
		if r == 0 {
			w.round0 = append(w.round0, s)
		}
	}
	// Leave no op's caches behind, so the heap the driver reads after round
	// 0 does not depend on which op the seed ordered last.
	detect.ResetCaches()
	return nil
}

// forgetRound0 deletes round 0's keys from the store before a later round
// asks for them again, so that round's requests miss like the first did.
// The last round's copies stay, for finish to read back.
func (w *profileCold) forgetRound0() {
	for _, s := range w.round0 {
		if s.key != "" {
			w.b.rec.check(w.store.Delete(s.key) == nil, "deleting %s from the store", s.op.Name)
		}
	}
}

// finish checks round 0's answers: shape, bound coverage against ground
// truth, and byte identity of a re-POST, a GET and (for every fourth op) a
// cold regeneration.
func (w *profileCold) finish() float64 {
	ctx := context.Background()
	chk := newProfileChecker(w.b.rec)
	for i, s := range w.round0 {
		if s.payload == nil || !chk.shape(s) {
			continue // already counted as failed
		}
		again, _, err := w.client.GenerateRaw(ctx, s.op.Req)
		chk.same(s, "re-POST", again, err)
		got, err := w.client.GetProfile(ctx, s.key)
		chk.same(s, "GET", got, err)
		if i%4 == 0 {
			detect.ResetCaches()
			fresh, err := w.gen.Generate(ctx, s.op.Req)
			chk.same(s, "cold regeneration", compactJSON(fresh), err)
		}
	}
	return chk.errBoundMean()
}

// genCounts are production-path counters summed over round 0's reference
// ops; they repeat exactly from run to run.
type genCounts struct {
	ops            int
	invocations    int64
	framesDetected int64
	frameHits      int64
	tasks, units   int64
	dedupSaved     int64
}

// countOp adds the counters one production-path op moved. The detect and
// outputs counters were zeroed by the ResetCaches before the op; the plan
// stage counters are cumulative, so the caller passes the snapshot it took.
func (c *genCounts) countOp(before plan.StageStats) {
	after, out := plan.Stages(), outputs.ReadStats()
	c.ops++
	c.invocations += detect.Invocations()
	c.framesDetected += out.FramesDetected
	c.frameHits += out.FrameHits
	c.tasks += after.Tasks - before.Tasks
	c.units += after.Units - before.Units
	c.dedupSaved += after.DedupSavedFrames - before.DedupSavedFrames
}

func (c *genCounts) report(b *bench) {
	if c.ops == 0 {
		return
	}
	n := float64(c.ops)
	b.layer("detect.invocations_per_op", float64(c.invocations)/n)
	b.layer("outputs.frames_detected_per_op", float64(c.framesDetected)/n)
	if total := c.frameHits + c.framesDetected; total > 0 {
		b.layer("outputs.frame_hit_ratio", float64(c.frameHits)/float64(total))
	}
	b.layer("plan.tasks_per_op", float64(c.tasks)/n)
	b.layer("plan.units_per_op", float64(c.units)/n)
	b.layer("plan.dedup_saved_frames_per_op", float64(c.dedupSaved)/n)
}

// traceRound answers each op twice from cold: through the daemon, untouched,
// as the reference; then through the staged driver, which makes the same
// calls in the same order with a span around each. The two payloads must be
// the same bytes.
func (w *profileCold) traceRound(r int) error {
	if w.stage == nil {
		st, err := newStager(w.b, w.gen, filepath.Join(w.dir, "staged-store"))
		if err != nil {
			return err
		}
		w.stage = st
	}
	if r > 0 {
		w.forgetRound0()
	}
	for i, op := range orderedRound(w.universe, w.b.opts.Seed, r) {
		opID := r*len(w.universe) + i + 1

		before := plan.Stages()
		s, ref := w.post(op)
		if s.payload == nil {
			continue
		}
		if r == 0 {
			w.counts.countOp(before)
			w.round0 = append(w.round0, s)
		}
		refInvocations := detect.Invocations()
		w.b.rec.latency(ref)
		w.b.refMS = append(w.b.refMS, ms(ref))
		if job, err := w.client.Job(context.Background(), fmt.Sprintf("job-%06d", w.jobs)); err == nil && job.Key == s.key {
			w.queueWaitMS = append(w.queueWaitMS, ms(job.Started.Sub(job.Created)))
		}

		detect.ResetCaches()
		payload, staged, err := w.stage.generate(opID, op.Req)
		if !w.b.rec.check(err == nil, "staged %s: %v", op.Name, err) {
			continue
		}
		w.b.rec.check(bytes.Equal(compactJSON(payload), s.payload), "staged %s: bytes differ from the daemon's answer", op.Name)
		w.b.rec.check(detect.Invocations() == refInvocations, "staged %s: %d detector invocations, the daemon made %d", op.Name, detect.Invocations(), refInvocations)
		w.b.tracedMS = append(w.b.tracedMS, ms(staged))
		w.httpOverheadMS = append(w.httpOverheadMS, ms(ref-staged))
		w.stage.afterOp()
	}
	return nil
}

func (w *profileCold) layerMetrics() {
	w.b.layer("server.http_overhead_ms_p50", median(w.httpOverheadMS))
	w.b.layer("server.queue_wait_ms_p50", median(w.queueWaitMS))
	w.counts.report(w.b)
	w.stage.report()
	reportDaemonCounters(w.b, []string{w.http.url})
	reportCaches(w.b)
	w.b.layer("scene.generate_ms", generateMS(coldCorpora[0])+generateMS(coldCorpora[1]))
	if col, err := truthColumn(coldCorpora[0], "car"); err == nil {
		estimatorProbes(w.b, col)
	}
}
