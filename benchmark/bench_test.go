package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var workloadNames = []string{"profile_cold", "serve_mix", "hypercube_batch", "stream_ingest"}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// The harness's metric tables and BENCHMARK.json are two copies of one
// contract; the driver reads the file, the harness prints from the tables.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join(testRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, file []benchMetric, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(file), len(table))
		}
		for i, d := range table {
			if file[i].Name != d.Name || file[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness prints %s (%s)", kind, i, file[i].Name, file[i].Unit, d.Name, d.Unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestOpDigestStablePerSeedAndDiffersAcrossSeeds(t *testing.T) {
	digest := func(name string, seed uint64) string {
		w, err := newWorkload(&bench{opts: options{Workload: name, Seed: seed}, rec: &recorder{}})
		if err != nil {
			t.Fatal(err)
		}
		return opDigest(w)
	}
	for _, name := range workloadNames {
		if a, b := digest(name, 7), digest(name, 7); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a, b := digest(name, 7), digest(name, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

// Every workload runs end to end at tiny scale, untraced and traced, passes
// its own output checks, and prints exactly the declared metrics.
func TestTinyWorkloads(t *testing.T) {
	root := testRoot(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := run(options{Workload: name, Seed: 3, Seconds: 0.01, Trace: trace, Tiny: true}, root)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
			}
			if rep.Claim != nil {
				t.Errorf("%s: the harness claims %q; it must claim nothing", name, *rep.Claim)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", name, trace, len(rep.Result.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", name, d.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(root, "benchmark", "out", name+".trace.json")); err != nil {
			t.Errorf("%s: traced run left no span file: %v", name, err)
		}
	}
}

// On one CPU nothing overlaps, so a cold request's top-level spans must add
// up to what the untouched request took through the daemon: the staged
// driver neither skips work nor adds any.
func TestColdSpansSumToUntracedLatency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A few rounds, so the median over op pairs does not hang on one op.
	rep, err := run(options{Workload: "profile_cold", Seed: 5, Seconds: 3, Trace: true, Tiny: true}, testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Correct {
		t.Fatalf("checks failed: %v", rep.Failures)
	}
	if share := rep.Result.Metrics["trace.overhead_share"].Value; math.Abs(share) > 0.10 {
		t.Errorf("staged spans sum to %+.1f%% of the daemon's latency; want within 10%%", 100*share)
	}
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := sample{[]float64{100, 101, 99, 100, 102, 100, 101, 99, 100, 102}}
	for _, tc := range []struct {
		name string
		m    benchMetric
		a, b sample
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower by 20%", lower, steady, sample{[]float64{120, 121, 119, 120, 122}}, "regressed"},
		{"faster by 20%", lower, steady, sample{[]float64{80, 81, 79, 80, 82, 80, 81, 79, 80, 82}}, "improved"},
		{"faster, but too few pairs to claim it", lower, steady, sample{[]float64{80, 81, 79, 80, 82}}, "unchanged"},
		{"better median, wins only 8 of 10 pairs", lower, steady, sample{[]float64{94, 94, 94, 94, 94, 94, 94, 94, 101, 103}}, "unchanged"},
		{"throughput down 20%", higher, steady, sample{[]float64{80, 81, 79, 80, 82}}, "regressed"},
		{"within bound", lower, steady, sample{[]float64{105, 106, 104, 105, 107}}, "unchanged"},
		{"too noisy to call", lower, sample{[]float64{80, 120, 100, 90, 110}}, sample{[]float64{85, 125, 105, 95, 115}}, "unresolved"},
		{"noisy but every run better", lower, sample{[]float64{80, 120, 100, 90, 110}}, sample{[]float64{40, 60, 50, 45, 55}}, "improved"},
	} {
		if got, _, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := (sample{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}).iqr(); got != 5.5 {
		t.Errorf("iqr of 1..10 = %v, want 5.5", got)
	}
}

// A run keeps the list of stored keys as it goes; that must give the same
// ops as the pure function the digest is taken from.
func TestServeMixRoundOpsMatchOpList(t *testing.T) {
	w := newServeMix(&bench{opts: options{Workload: "serve_mix", Seed: 9, Tiny: true}, rec: &recorder{}}).(*serveMix)
	for _, r := range []int{0, 1, 2, 5, 1} {
		got, want := w.roundOps(r), mixRound(w.shape, 9, r)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d ops, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d op %d: %+v, want %+v", r, i, got[i], want[i])
			}
		}
	}
}
