package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/fleetd"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/query"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
)

// serve_mix: a three-node fleet serving a warm key population.
//
// Administrators read stored profiles (80 % GET), re-request stored ones
// (19 % POST that hits) and ask for new ones (1 % POST of a new key)
// whose detector columns are already full. Query, server, outputs hits,
// estimate, store and fleetd (forward, lease, replicate) do the work and the
// detector none: a kernel speed-up should not show here, a cache or routing
// change should show here and not in profile_cold. New-key POSTs write and
// fan out while GETs read, so a read gain that costs writes shows too.
//
// New keys are kept to one request in a hundred because each costs two
// fsyncs (owner and replica), and on a shared disk fsync time moves by a
// factor of three between runs — and within one — for reasons outside the
// process that the speed gauge cannot see; at one in forty a round's
// throughput swung between 3100 and 9100 requests/s inside a single run
// while the GET median stood still. For the same reason the
// latency reported is the median over every request — a GET — while the
// new-key POST's own latency is a per-layer metric of the traced run.

const (
	mixNodes  = 3
	mixCorpus = "small"
)

// mixCombo is one (column group, class, aggregate) a key can ask for. Every
// key shares its group's (corpus, resolution) columns with earlier keys.
type mixCombo struct{ group, class, agg string }

// mixCombos lists what new keys cycle through: every aggregate of both
// classes at native resolution, and at RESOLUTION 160 only AVG and SUM of
// persons. Both gaps are deliberate. A non-random request builds a
// correction set; repairing an extremum against one is not repeatable under
// parallel estimation (see meanAggs), and on roughly one request seed in
// twenty-five small's car correction set comes out with a zero estimate, its
// relative bound is +Inf, SaveProfile cannot encode it and the daemon answers
// 502 (see README, "What the first traces found"). A workload must not
// contain ops that fail, so at RESOLUTION 160 it asks for the mean-type
// aggregates of persons, which small never lacks.
var mixCombos = func() []mixCombo {
	var out []mixCombo
	for _, class := range []string{"car", "person"} {
		for _, agg := range append(append([]string{}, meanAggs...), extremumAggs...) {
			out = append(out, mixCombo{"", class, agg})
		}
	}
	for _, agg := range meanAggs {
		out = append(out, mixCombo{"RESOLUTION 160", "person", agg})
	}
	return out
}()

var mixSteps = []float64{0.01, 0.02}

// mixShape sizes one round.
type mixShape struct{ newKeys, hits, gets, baseSeeds int }

func mixShapeFor(tiny bool) mixShape {
	if tiny {
		return mixShape{newKeys: 8, hits: 16, gets: 56, baseSeeds: 1}
	}
	return mixShape{newKeys: 40, hits: 760, gets: 3200, baseSeeds: 1}
}

// mixOp is one client request. Req is the profile the op concerns: the one
// to generate (post_new), to re-request (post_hit) or to fetch by key (get).
type mixOp struct {
	Kind   string            `json:"kind"`
	Node   int               `json:"node"` // entry node
	Req    server.GenRequest `json:"req"`
	Points int               `json:"points"`
}

func mixRequest(c mixCombo, step float64, seed uint64) mixOp {
	req := genRequest(c.agg, c.class, mixCorpus, c.group)
	req.Seed, req.Step = seed, step
	req.Normalize()
	return mixOp{Req: req, Points: len(plan.CandidateFractions(req.Step, req.MaxFraction))}
}

// baseKeys are the requests set-up stores before the timed phase: every
// combo once per base seed.
func baseKeys(shape mixShape) []mixOp {
	var ops []mixOp
	for seed := 1; seed <= shape.baseSeeds; seed++ {
		for _, c := range mixCombos {
			ops = append(ops, mixRequest(c, mixSteps[0], uint64(seed)))
		}
	}
	return ops
}

// newKeys are the keys round r generates: the same set in every run. The
// request seed is what makes them new; combo and step cycle beneath it.
func newKeys(shape mixShape, r int) []mixOp {
	ops := make([]mixOp, 0, shape.newKeys)
	for seed := uint64(1000 + r*100); ; seed++ {
		for _, c := range mixCombos {
			for _, step := range mixSteps {
				if len(ops) == shape.newKeys {
					return ops
				}
				ops = append(ops, mixRequest(c, step, seed))
			}
		}
	}
}

// mixRound builds round r's op list: the round's new keys, plus re-POSTs
// and GETs of keys stored before the round began, shuffled together and
// given entry nodes by the run's seed.
func mixRound(shape mixShape, seed uint64, r int) []mixOp {
	known := baseKeys(shape)
	for prev := 0; prev < r; prev++ {
		known = append(known, newKeys(shape, prev)...)
	}
	return mixRoundOver(known, shape, seed, r)
}

// mixRoundOver is mixRound given the keys stored before round r, which a
// run going through the rounds in order keeps instead of rebuilding.
func mixRoundOver(known []mixOp, shape mixShape, seed uint64, r int) []mixOp {
	rng := stats.NewStream(seed).ChildN(0x313, uint64(r))
	ops := newKeys(shape, r)
	for i := range ops {
		ops[i].Kind = "post_new"
	}
	for i := 0; i < shape.hits+shape.gets; i++ {
		op := known[rng.Intn(len(known))]
		op.Kind = "get"
		if i < shape.hits {
			op.Kind = "post_hit"
		}
		ops = append(ops, op)
	}
	shuffled := make([]mixOp, len(ops))
	for i, j := range rng.Perm(len(ops)) {
		shuffled[i] = ops[j]
		shuffled[i].Node = rng.Intn(mixNodes)
	}
	return shuffled
}

// fleetNode is one fleet member with its listener.
type fleetNode struct {
	name string
	node *fleetd.Node
	http *listener
}

// stored is what the harness remembers about a key it has seen answered.
type stored struct {
	key  string
	hash uint64
}

// mixSample is one traced client op.
type mixSample struct {
	kind      string
	forwarded bool // the entry node was not a replica of the key
	d         time.Duration
}

type serveMix struct {
	b       *bench
	shape   mixShape
	gen     *server.SystemGenerator
	clients int

	dir   string
	nodes []*fleetNode
	// http holds one keep-alive pool per client goroutine; api[c][n] is
	// client c's view of node n.
	http []*http.Client
	api  [][]*server.Client

	// prior lists the requests stored before round priorRounds began,
	// in mixRound's order.
	prior       []mixOp
	priorRounds int

	mu     sync.Mutex
	known  map[string]stored // by canonical request JSON
	round0 []served

	// Traced-run samples.
	samples     []mixSample
	stagesStart plan.StageStats
	invStart    int64
	primaryMS   float64 // time clients spent waiting on new-key POSTs
	newPosts    int
}

func newServeMix(b *bench) workload {
	clients := 2
	if runtime.NumCPU() < clients {
		clients = runtime.NumCPU()
	}
	return &serveMix{b: b, shape: mixShapeFor(b.opts.Tiny), gen: daemonGenerator(), clients: clients}
}

func (w *serveMix) opList(r int) any { return mixRound(w.shape, w.b.opts.Seed, r) }

func reqID(req server.GenRequest) string {
	id, err := json.Marshal(req)
	if err != nil {
		panic(err) // a GenRequest is plain data
	}
	return string(id)
}

func (w *serveMix) setup() error {
	detect.ResetCaches()
	if _, err := dataset.Load(mixCorpus); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.b.tmp, "fleet-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.known = map[string]stored{}

	// The fleet the way three `smokescreend -fleet-nodes` processes form it,
	// with the real generator (fleetd's own test harness hard-wires a
	// synthetic one).
	var names []string
	listeners := make([]net.Listener, mixNodes)
	for i := range listeners {
		if listeners[i], err = listenLoopback(); err != nil {
			return err
		}
		names = append(names, listeners[i].Addr().String())
	}
	for i, name := range names {
		st, err := openStore(filepath.Join(dir, fmt.Sprintf("n%d", i)))
		if err != nil {
			return err
		}
		node, err := fleetd.NewNode(fleetd.Config{
			Self: name, Nodes: names, Store: st, Generator: w.gen, Server: daemonServerConfig(),
		})
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, &fleetNode{name: name, node: node, http: serve(listeners[i], node.Handler())})
	}
	for c := 0; c < w.clients; c++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
		w.http = append(w.http, hc)
		var row []*server.Client
		for _, n := range w.nodes {
			row = append(row, &server.Client{BaseURL: n.http.url, HTTPClient: hc, MaxRetries: -1})
		}
		w.api = append(w.api, row)
	}

	// Full columns for both column groups: the native one is the ground
	// truth the bound checks need and every correction set reads; with the
	// RESOLUTION 160 one also full, no timed request detects anything, so
	// rounds do not get faster as the run goes on.
	for _, group := range []string{"", "RESOLUTION 160"} {
		rs, err := resolveRequest(genRequest("AVG", "car", mixCorpus, group))
		if err != nil {
			return err
		}
		p := rs.q.Setting.ResolveResolution(rs.spec.Model)
		if _, err := outputs.Full(context.Background(), rs.spec.Video, rs.spec.Model, rs.spec.Class, p); err != nil {
			return err
		}
	}
	// Priming pass: store the base keys, entering at rotating nodes.
	for i, op := range baseKeys(w.shape) {
		payload, key, err := w.api[0][i%mixNodes].GenerateRaw(context.Background(), op.Req)
		if err != nil {
			return fmt.Errorf("priming %s: %w", op.Req.Query, err)
		}
		w.known[reqID(op.Req)] = stored{key, payloadHash(payload)}
	}
	return nil
}

func (w *serveMix) teardown() {
	for _, hc := range w.http {
		hc.CloseIdleConnections()
	}
	for _, n := range w.nodes {
		n.http.stop()
		_ = n.node.Close() // nothing queued: every POST was synchronous and has returned
	}
	w.nodes, w.http, w.api = nil, nil, nil
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveMix) urls() []string {
	var out []string
	for _, n := range w.nodes {
		out = append(out, n.http.url)
	}
	return out
}

// do executes one op as client c and checks the answer inline: the request
// succeeds, and a key answered before answers with the same bytes.
func (w *serveMix) do(c, r int, op mixOp) time.Duration {
	ctx := context.Background()
	api := w.api[c][op.Node]
	id := reqID(op.Req)
	var payload []byte
	var key string
	var err error
	t0 := time.Now()
	switch op.Kind {
	case "get":
		w.mu.Lock()
		key = w.known[id].key
		w.mu.Unlock()
		payload, err = api.GetProfile(ctx, key)
	default:
		payload, key, err = api.GenerateRaw(ctx, op.Req)
	}
	d := time.Since(t0)
	if !w.b.rec.check(err == nil, "%s %s seed %d step %v via node %d: %v", op.Kind, op.Req.Query, op.Req.Seed, op.Req.Step, op.Node, err) {
		return d
	}
	hash := payloadHash(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if op.Kind == "post_new" {
		w.known[id] = stored{key, hash}
		if r == 0 {
			w.round0 = append(w.round0, served{op: genOp{Name: op.Req.Query, Req: op.Req, Points: op.Points}, key: key, payload: payload})
		}
		return d
	}
	w.b.rec.check(w.known[id].hash == hash, "%s %s via node %d: bytes differ from the first answer", op.Kind, op.Req.Query, op.Node)
	return d
}

// runRound splits round r's ops across the client goroutines (op i goes to
// client i mod clients) and waits for all of them. observe, when set, sees
// every op's latency.
func (w *serveMix) runRound(r int, observe func(op mixOp, d time.Duration)) {
	ops := w.roundOps(r)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += w.clients {
				d := w.do(c, r, ops[i])
				w.b.rec.latency(d)
				if observe != nil {
					observe(ops[i], d)
				}
			}
		}(c)
	}
	wg.Wait()
	w.b.rec.done(len(ops))
}

// roundOps is mixRound(r) for a run that takes the rounds in order.
func (w *serveMix) roundOps(r int) []mixOp {
	if w.prior == nil || r < w.priorRounds {
		w.prior, w.priorRounds = baseKeys(w.shape), 0
	}
	for ; w.priorRounds < r; w.priorRounds++ {
		w.prior = append(w.prior, newKeys(w.shape, w.priorRounds)...)
	}
	return mixRoundOver(w.prior, w.shape, w.b.opts.Seed, r)
}

func (w *serveMix) round(r int) error {
	w.runRound(r, nil)
	return nil
}

// finish checks round 0's new profiles — shape, bound coverage, the same
// bytes from each of the three nodes, and from a direct regeneration for
// every tenth — and that the fleet generated each key exactly once.
func (w *serveMix) finish() float64 {
	ctx := context.Background()
	chk := newProfileChecker(w.b.rec)
	for i, s := range w.round0 {
		if !chk.shape(s) {
			continue
		}
		for n := range w.nodes {
			got, err := w.api[0][n].GetProfile(ctx, s.key)
			chk.same(s, fmt.Sprintf("GET via node %d", n), got, err)
		}
		if i%10 == 0 {
			fresh, err := w.gen.Generate(ctx, s.op.Req)
			chk.same(s, "regeneration", compactJSON(fresh), err)
		}
	}
	w.checkGenerations(scrapeSum(w.urls()))
	return chk.errBoundMean()
}

// checkGenerations checks that the fleet generated every key exactly once:
// leases and routing let no request duplicate another's work.
func (w *serveMix) checkGenerations(metrics map[string]int64) {
	gens := metrics["smokescreend_generations_total"]
	w.b.rec.check(int(gens) == len(w.known), "fleet ran %d generations for %d distinct keys", gens, len(w.known))
}

// traceRound runs two consecutive rounds: the first untouched as the
// reference, the second with every client op recorded as a span. (A round
// cannot be replayed — its new keys are stored after the first pass — so
// the traced pass gets the next round's keys: the same mix, other seeds.)
func (w *serveMix) traceRound(r int) error {
	if r == 0 {
		w.stagesStart, w.invStart = plan.Stages(), detect.Invocations()
	}
	// Tracing overhead is judged on GETs: recording a span costs the same
	// for every kind of op, GETs are the cheapest, and unlike new-key POSTs
	// they do not get faster as the columns fill from round to round.
	w.runRound(2*r, func(op mixOp, d time.Duration) {
		w.mu.Lock()
		defer w.mu.Unlock()
		switch op.Kind {
		case "get":
			w.b.refMS = append(w.b.refMS, ms(d))
		case "post_new":
			w.primaryMS += ms(d)
			w.newPosts++
		}
	})
	ring := w.nodes[0].node.Ring()
	w.runRound(2*r+1, func(op mixOp, d time.Duration) {
		end := time.Now()
		w.mu.Lock()
		defer w.mu.Unlock()
		key := w.known[reqID(op.Req)].key
		w.samples = append(w.samples, mixSample{op.Kind, !ring.IsReplica(key, w.nodes[op.Node].name), d})
		w.b.tr.record("client."+op.Kind, end, d)
		switch op.Kind {
		case "get":
			w.b.tracedMS = append(w.b.tracedMS, ms(d))
		case "post_new":
			w.primaryMS += ms(d)
			w.newPosts++
		}
	})
	return nil
}

func (w *serveMix) layerMetrics() {
	b := w.b
	var local, forwarded, hit, fresh []float64
	for _, s := range w.samples {
		switch {
		case s.kind == "post_new":
			fresh = append(fresh, ms(s.d))
		case s.kind == "post_hit":
			hit = append(hit, ms(s.d))
		case s.kind == "get" && s.forwarded:
			forwarded = append(forwarded, us(s.d))
		case s.kind == "get":
			local = append(local, us(s.d))
		}
	}
	b.layer("server.post_hit_ms_p50", median(hit))
	b.layer("server.post_new_ms_p50", median(fresh))
	b.layer("fleetd.get_local_us_p50", median(local))
	b.layer("fleetd.get_forwarded_us_p50", median(forwarded))

	m := scrapeSum(w.urls())
	if served := m["smokescreend_fleet_local_requests_total"]; served > 0 {
		b.layer("fleetd.forwarded_ratio", float64(m["smokescreend_fleet_forwards_total"])/float64(served))
	}
	if gens := m["smokescreend_generations_total"]; gens > 0 {
		b.layer("fleetd.replica_writes_per_put", float64(m["smokescreend_fleet_replica_writes_total"])/float64(gens))
		b.layer("fleetd.generations_per_key", float64(gens)/float64(len(w.known)))
	}
	b.layer("fleetd.repairs", float64(m["smokescreend_fleet_repairs_total"]))
	b.layer("fleetd.lease_waits", float64(m["smokescreend_fleet_lease_waits_total"]))
	w.checkGenerations(m)
	reportDaemonCounters(b, w.urls())

	// The product's own stage accounting over the traced rounds, as shares
	// of the time clients spent waiting on new-key POSTs.
	stages := plan.Stages()
	if w.primaryMS > 0 {
		b.layer("plan.stage_share", float64(stages.PlanNS-w.stagesStart.PlanNS)/1e6/w.primaryMS)
		b.layer("detect.stage_share", float64(stages.DetectNS-w.stagesStart.DetectNS)/1e6/w.primaryMS)
		b.layer("estimate.stage_share", float64(stages.EstimateNS-w.stagesStart.EstimateNS)/1e6/w.primaryMS)
	}
	if w.newPosts > 0 {
		b.layer("detect.invocations_per_op", float64(detect.Invocations()-w.invStart)/float64(w.newPosts))
		b.layer("plan.tasks_per_op", float64(stages.Tasks-w.stagesStart.Tasks)/float64(w.newPosts))
	}
	os := outputs.ReadStats()
	if total := os.FrameHits + os.FramesDetected; total > 0 {
		b.layer("outputs.frame_hit_ratio", float64(os.FrameHits)/float64(total))
	}

	w.requestProbes()
	w.storeProbes()
	if col, err := truthColumn(mixCorpus, "car"); err == nil {
		estimatorProbes(b, col)
		var at []float64
		rs, err := resolveRequest(genRequest("AVG", "car", mixCorpus, ""))
		for rep := 0; err == nil && rep < 200; rep++ {
			frames := stats.NewStream(uint64(rep)).SampleWithoutReplacement(len(col), len(col)/5)
			t0 := time.Now()
			_, err = outputs.At(context.Background(), rs.spec.Video, rs.spec.Model, rs.spec.Class, rs.spec.Model.NativeInput, frames)
			at = append(at, us(time.Since(t0)))
		}
		b.layer("outputs.at_us_p50", median(at))
	}
	reportCaches(b)
}

// requestProbes times the per-request front end on round 0's new-key
// requests: body decode, query parse, canonical key.
func (w *serveMix) requestProbes() {
	var decode, parse, key []float64
	for _, s := range w.round0 {
		body, err := json.Marshal(s.op.Req)
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := server.DecodeGenRequest(bytes.NewReader(body)); err != nil {
			continue
		}
		decode = append(decode, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := query.Parse(s.op.Req.Query); err != nil {
			continue
		}
		parse = append(parse, us(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := w.gen.Key(s.op.Req); err != nil {
			continue
		}
		key = append(key, us(time.Since(t0)))
	}
	w.b.layer("server.decode_us_p50", median(decode))
	w.b.layer("query.parse_us_p50", median(parse))
	w.b.layer("server.key_us_p50", median(key))
}

// storeProbes times the store on round 0's payloads in a scratch store:
// put, get from memory, get from disk, and the envelope's disk overhead.
func (w *serveMix) storeProbes() {
	st, err := openStore(filepath.Join(w.dir, "probe-store"))
	if err != nil {
		return
	}
	var put, mem, disk []float64
	var payloadBytes, diskBytes int64
	for _, s := range w.round0 {
		t0 := time.Now()
		if err := st.Put(s.key, s.payload); err != nil {
			return
		}
		put = append(put, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := st.Get(s.key); err != nil {
			return
		}
		mem = append(mem, us(time.Since(t0)))
		st.Invalidate(s.key)
		t0 = time.Now()
		if _, err := st.Get(s.key); err != nil {
			return
		}
		disk = append(disk, us(time.Since(t0)))
		if info, err := os.Stat(st.EnvelopePath(s.key)); err == nil {
			payloadBytes += int64(len(s.payload))
			diskBytes += info.Size()
		}
	}
	w.b.layer("store.put_us_p50", median(put))
	w.b.layer("store.get_mem_us_p50", median(mem))
	w.b.layer("store.get_disk_us_p50", median(disk))
	if payloadBytes > 0 {
		w.b.layer("store.disk_bytes_per_payload_byte", float64(diskBytes)/float64(payloadBytes))
	}
}
