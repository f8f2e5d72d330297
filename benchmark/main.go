// Command benchmark is the repository benchmark: four workloads that drive
// the system through the entry points its users call (the daemon's HTTP API,
// a three-node fleet, the batch hypercube generator, a camera stream), an
// untraced run that reports what those users see, and a traced run that
// attributes the time to the layers underneath. See README.md.
//
// Usage:
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1 [-scale full|tiny] [-record FILE]
//	benchmark -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// options are one run's command-line inputs.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Tiny shrinks every round so bench_test.go can run all four workloads
	// in seconds; numbers from a tiny run are not comparable to full ones.
	Tiny bool
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, which drops the first repetition's page-fault and heap-growth cost.
const setupReps = 5

// digestRounds is how many rounds of the op list the digest covers.
const digestRounds = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run records: the result line plus what makes two
// runs comparable. -compare reads these.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Tiny     bool    `json:"tiny,omitempty"`
	OpDigest string  `json:"op_digest"`
	Rounds   int     `json:"rounds"`
	// RoundP50MS and RoundOpsPerS are each round's median latency and
	// throughput at reference speed; the end-to-end latency_p50_ms and
	// ops_per_s are their medians. The Raw fields are the same as the wall
	// clock read them, RoundGaugeMS the mean gauge reading around each round;
	// likewise for the set-ups.
	RoundP50MS      []float64      `json:"round_p50_ms,omitempty"`
	RoundOpsPerS    []float64      `json:"round_ops_per_s,omitempty"`
	RoundRawP50MS   []float64      `json:"round_raw_p50_ms,omitempty"`
	RoundRawOpsPerS []float64      `json:"round_raw_ops_per_s,omitempty"`
	RoundGaugeMS    []float64      `json:"round_gauge_ms,omitempty"`
	SetupS          []float64      `json:"setup_s,omitempty"`
	SetupRawS       []float64      `json:"setup_raw_s,omitempty"`
	SetupGaugeMS    []float64      `json:"setup_gauge_ms,omitempty"`
	Samples         map[string]int `json:"samples"`
	Provenance      provenance     `json:"provenance"`
	// Claim is always null: this harness measures, it never claims a gain.
	Claim    *string    `json:"claim"`
	Failures []string   `json:"failures,omitempty"`
	Result   resultLine `json:"result"`
}

// workload is one of the four traffic shapes. The driver below owns the
// phases; a workload only says what each phase does.
type workload interface {
	// opList returns round r's inputs, for the digest. It is a pure function
	// of (seed, r).
	opList(r int) any
	// setup brings the system to the state the timed phase starts from:
	// corpora, stores, servers, listeners, priming. It must do the same work
	// when called again after teardown.
	setup() error
	teardown()
	// round runs round r through the production entry point, recording each
	// op in b.rec. Untraced runs only.
	round(r int) error
	// finish runs the output checks that are too slow to interleave with
	// timed ops, and returns the mean error bound over round 0's results.
	finish() (errBoundMean float64)
	// traceRound runs round r twice: once through the production entry
	// point as the reference, once through the layers with spans.
	traceRound(r int) error
	// layerMetrics turns the spans and counters of a traced run into
	// per-layer metrics (b.layer), running whatever standalone probes the
	// workload's layers need.
	layerMetrics()
}

// bench is the state a run shares with its workload.
type bench struct {
	opts   options
	outDir string
	tmp    string // scratch for stores; inside the checkout, removed at exit
	rec    *recorder
	tr     *tracer // nil on untraced runs
	g      *gauge  // nil on traced runs
	layers map[string]float64
	// refMS and tracedMS are per-op latencies of the traced run's two
	// passes over the same ops, in the same order; see overheadShare.
	refMS, tracedMS []float64
}

// layer records a per-layer metric; an unknown name is a bug in the harness.
func (b *bench) layer(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			b.layers[name] = v
			return
		}
	}
	panic("benchmark: layer metric " + name + " is not declared in perLayer")
}

// pace takes a gauge reading. The workloads whose ops run one at a time and
// take a tenth of a second or more call it between ops, so each op's time is
// scaled by readings taken right beside it.
func (b *bench) pace() {
	if b.g != nil {
		b.g.read()
	}
}

// recorder counts ops and checks and keeps the primary op's latencies.
type recorder struct {
	mu        sync.Mutex
	latencyMS []float64   // as the wall clock read them
	ended     []time.Time // when each ended
	primary   int         // primary ops completed (the numerator of ops_per_s)
	attempted int
	failed    int
	failures  []string
}

// latency records an op that has just ended.
func (r *recorder) latency(d time.Duration) { r.latencyAt(time.Now(), d) }

func (r *recorder) latencyAt(end time.Time, d time.Duration) {
	r.mu.Lock()
	r.latencyMS = append(r.latencyMS, ms(d))
	r.ended = append(r.ended, end)
	r.mu.Unlock()
}

func (r *recorder) done(n int) {
	r.mu.Lock()
	r.primary += n
	r.mu.Unlock()
}

// check counts one attempted op or output check; a false ok is a failure.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// note appends detail to the last recorded failure.
func (r *recorder) note(detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.failures); n > 0 {
		r.failures[n-1] += ": " + detail
	}
}

func newWorkload(b *bench) (workload, error) {
	switch b.opts.Workload {
	case "profile_cold":
		return newProfileCold(b), nil
	case "serve_mix":
		return newServeMix(b), nil
	case "hypercube_batch":
		return newHypercubeBatch(b), nil
	case "stream_ingest":
		return newStreamIngest(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have profile_cold, serve_mix, hypercube_batch, stream_ingest)", b.opts.Workload)
}

// findRoot locates the checkout root from the working directory: the
// directory holding BENCHMARK.json, which is the working directory itself
// under run.sh and its parent under `go run .` inside benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the checkout root or from benchmark/")
}

func main() {
	var opts options
	var trace int
	var scale, record string
	var compare bool
	flag.StringVar(&opts.Workload, "workload", "", "profile_cold, serve_mix, hypercube_batch or stream_ingest")
	flag.Uint64Var(&opts.Seed, "seed", 1, "seed of the op-list generator")
	flag.Float64Var(&opts.Seconds, "seconds", 10, "how long the timed phase measures (whole rounds; at least one)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for the harness's own tests")
	flag.StringVar(&record, "record", "", "append this run's report to FILE as one JSON line (input to -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two files of recorded reports: -compare A.jsonl B.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files of recorded reports"))
		}
		regressed, err := compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	opts.Trace = trace != 0
	opts.Tiny = scale == "tiny"
	if scale != "tiny" && scale != "full" {
		fatal(fmt.Errorf("unknown -scale %q", scale))
	}

	rep, err := run(opts, root)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if record != "" {
		f, err := os.OpenFile(record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	result, err := json.Marshal(rep.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", line, result)
	if !rep.Result.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "benchmark: failed check:", f)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes one workload once and returns its report.
func run(opts options, root string) (*report, error) {
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{opts: opts, outDir: outDir, tmp: tmp, rec: &recorder{}, layers: map[string]float64{}}
	w, err := newWorkload(b)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: opts.Workload, Seed: opts.Seed, Seconds: opts.Seconds,
		Trace: opts.Trace, Tiny: opts.Tiny,
		OpDigest:   opDigest(w),
		Provenance: readProvenance(root),
		Samples:    map[string]int{},
	}

	metrics := map[string]metric{}
	if opts.Trace {
		err = runTraced(b, w, rep)
		for _, d := range perLayer {
			metrics[d.Name] = metric{Value: b.layers[d.Name], Unit: d.Unit}
		}
	} else {
		var values map[string]float64
		values, err = runUntraced(b, w, rep)
		for _, d := range endToEnd {
			metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Failures = b.rec.failures
	rep.Result = resultLine{
		Correct:   b.rec.failed == 0,
		Attempted: b.rec.attempted,
		Failed:    b.rec.failed,
		Metrics:   metrics,
	}

	name := opts.Workload + ".json"
	if opts.Trace {
		name = opts.Workload + ".layers.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// runUntraced measures the end-to-end metrics: repeated set-up, then whole
// rounds of ops until opts.Seconds have passed, then the deferred output
// checks. Every time it reports is at reference speed; see gauge.go.
func runUntraced(b *bench, w workload, rep *report) (map[string]float64, error) {
	reps := setupReps
	if b.opts.Tiny {
		reps = 1
	}
	g := newGauge()
	b.g = g
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		g.read()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		t1 := time.Now()
		g.read()
		raw := t1.Sub(t0).Seconds()
		rep.SetupRawS = append(rep.SetupRawS, raw)
		rep.SetupS = append(rep.SetupS, g.atReference(raw, t0, t1))
		rep.SetupGaugeMS = append(rep.SetupGaugeMS, g.over(t0, t1))
	}
	defer w.teardown()

	// Each round is summarised on its own — its median latency, its
	// throughput — and the run reports the median of the rounds, so a burst
	// of interference from outside the process costs one round's value, not
	// a shift of the whole run's.
	var retained float64
	rec := b.rec
	start := time.Now()
	for r := 0; ; r++ {
		seen, done, spent, t0 := len(rec.latencyMS), rec.primary, g.spent, time.Now()
		if err := w.round(r); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		t1, inGauge := time.Now(), g.spent-spent
		g.read() // closes this round and opens the next
		scaled := make([]float64, 0, len(rec.latencyMS)-seen)
		for i := seen; i < len(rec.latencyMS); i++ {
			began := rec.ended[i].Add(-time.Duration(rec.latencyMS[i] * float64(time.Millisecond)))
			scaled = append(scaled, g.atReference(rec.latencyMS[i], began, rec.ended[i]))
		}
		// The round's own gauge readings are not the round's work.
		busy := (t1.Sub(t0) - inGauge).Seconds()
		rep.RoundRawP50MS = append(rep.RoundRawP50MS, median(rec.latencyMS[seen:]))
		rep.RoundP50MS = append(rep.RoundP50MS, median(scaled))
		rep.RoundRawOpsPerS = append(rep.RoundRawOpsPerS, float64(rec.primary-done)/busy)
		rep.RoundOpsPerS = append(rep.RoundOpsPerS, float64(rec.primary-done)/g.atReference(busy, t0, t1))
		rep.RoundGaugeMS = append(rep.RoundGaugeMS, g.over(t0, t1))
		if r == 0 {
			// The heap is read after round 0, when every run has done exactly
			// the same work, not after however many rounds the machine's
			// speed allowed. Two collections: the first runs finalizers, the
			// second frees what they released, so what remains is what the
			// caches hold on to.
			runtime.GC()
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			retained = float64(mem.HeapAlloc) / (1 << 20)
			g.read() // the collections may have taken a while
		}
		if time.Since(start).Seconds() >= b.opts.Seconds {
			break
		}
	}

	errBoundMean := w.finish()

	rep.Rounds = len(rep.RoundP50MS)
	rep.Samples["latency"] = len(rec.latencyMS)
	rep.Samples["primary_ops"] = rec.primary
	rep.Samples["setup"] = len(rep.SetupS)
	rep.Samples["gauge"] = len(g.log)
	return map[string]float64{
		"setup_s":          median(rep.SetupS),
		"latency_p50_ms":   median(rep.RoundP50MS),
		"ops_per_s":        median(rep.RoundOpsPerS),
		"err_bound_mean":   errBoundMean,
		"retained_heap_mb": retained,
	}, nil
}

// runTraced measures the per-layer metrics. End-to-end numbers are never
// taken from this run: spans, staged calls and probes all perturb it.
func runTraced(b *bench, w workload, rep *report) error {
	b.tr = newTracer()
	if err := w.setup(); err != nil {
		w.teardown()
		return fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds := 0
	for {
		if err := w.traceRound(rounds); err != nil {
			return fmt.Errorf("traced round %d: %w", rounds, err)
		}
		rounds++
		if time.Since(start).Seconds() >= b.opts.Seconds {
			break
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	w.layerMetrics()

	ops := len(b.refMS) + len(b.tracedMS)
	if ops > 0 {
		b.layer("process.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(ops))
	}
	b.layer("process.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	b.layer("trace.overhead_share", overheadShare(b.refMS, b.tracedMS))
	if n := len(b.rec.latencyMS); n >= 100 {
		// Below a hundred samples fewer than ten lie beyond the p90, and it
		// reads 0 rather than a number nobody should compare.
		b.layer("client.latency_p90_ms", percentile(b.rec.latencyMS, 0.9))
	}
	b.layer("client.latency_samples", float64(len(b.rec.latencyMS)))
	b.layer("parallel.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	rep.Rounds = rounds
	rep.Samples["latency"] = len(b.rec.latencyMS)
	rep.Samples["spans"] = len(b.tr.spans)
	return b.tr.write(filepath.Join(b.outDir, b.opts.Workload+".trace.json"))
}

// overheadShare is how much longer the traced pass took than the reference
// pass, as a share of the reference. Every workload appends the two passes
// in the same op order, so equal-length samples pair up op by op and the
// median ratio is taken — one slow op on either side moves it little;
// otherwise the means are compared.
func overheadShare(ref, traced []float64) float64 {
	if len(ref) == 0 || len(traced) == 0 {
		return 0
	}
	if len(ref) != len(traced) {
		return mean(traced)/mean(ref) - 1
	}
	ratios := make([]float64, 0, len(ref))
	for i, r := range ref {
		if r > 0 {
			ratios = append(ratios, traced[i]/r-1)
		}
	}
	return median(ratios)
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
