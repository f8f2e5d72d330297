package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"smokescreen/internal/estimate"
)

// The parallel trial loops must reproduce the sequential reports exactly:
// trials derive their randomness from stream children keyed by the trial
// index and are reduced in trial order, so every float sum matches
// bit-for-bit. Extra Ps are forced so goroutines genuinely interleave even
// on a single-CPU host.
func TestRunPanelParallelBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// The small corpus keeps this fast enough for `make test-race`, where
	// instrumentation makes detector work an order of magnitude slower.
	w := Workload{Dataset: "small", Model: "yolov4", Agg: estimate.AVG}
	cfg := QuickConfig()
	cfg.Parallelism = 1
	seq, err := runPanel(w, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Parallelism = workers
		par, err := runPanel(w, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism=%d: panel differs from sequential:\n%+v\nvs\n%+v", workers, par, seq)
		}
	}
}

// Every figure whose trials fan out through trialSums renders the same
// report at one worker and at four.
func TestFiguresParallelBitIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("full figure sweeps exceed the test timeout under the race detector; " +
			"the panel test exercises the same parallel trial reduction")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	for _, id := range []string{"figure6", "figure9", "figure10"} {
		t.Run(id, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Parallelism = 1
			seq, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallelism = 4
			par, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s differs under parallelism:\n%+v\nvs\n%+v", id, par, seq)
			}
		})
	}
}
