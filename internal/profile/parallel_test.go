package profile

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"smokescreen/internal/estimate"
	"smokescreen/internal/stats"
)

// These tests pin the PR's central correctness claim: the parallel
// profile-generation paths are bit-for-bit identical to the sequential
// reference for a fixed seed, regardless of worker count or the order in
// which workers happen to finish. Running each parallel configuration
// several times (with extra Ps forced, so goroutines genuinely interleave
// even on a single-CPU host) exercises different completion orders.

func hypercubeBytes(t *testing.T, cube *Hypercube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveHypercube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelHypercubeBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	s := testSpec(estimate.AVG)
	root := stats.NewStream(157)
	res, err := ConstructCorrectionCtx(context.Background(), s, 1, root.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := HypercubeOptions{
		Fractions:  []float64{0.02, 0.1},
		Correction: res.Correction,
	}

	opts.Parallelism = 1
	seq, err := GenerateHypercubeCtx(context.Background(), s, opts, root.Child(2))
	if err != nil {
		t.Fatal(err)
	}
	want := hypercubeBytes(t, seq)

	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			opts.Parallelism = workers
			cube, err := GenerateHypercubeCtx(context.Background(), s, opts, root.Child(2))
			if err != nil {
				t.Fatal(err)
			}
			if got := hypercubeBytes(t, cube); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d rep=%d: parallel hypercube differs from sequential:\n%s\nvs\n%s",
					workers, rep, got, want)
			}
		}
	}
}

func TestParallelSweepBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	s := testSpec(estimate.AVG)
	root := stats.NewStream(91)
	opts := SweepOptions{
		Fractions:   []float64{0.02, 0.05, 0.1, 0.2},
		Parallelism: 1,
	}
	seq, err := SweepFractionsCtx(context.Background(), s, opts, root.Child(7))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			opts.Parallelism = workers
			par, err := SweepFractionsCtx(context.Background(), s, opts, root.Child(7))
			if err != nil {
				t.Fatal(err)
			}
			// DeepEqual over the full Estimate structs is stricter than the
			// persisted form: every float must match exactly.
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers=%d rep=%d: parallel sweep differs:\n%+v\nvs\n%+v", workers, rep, par, seq)
			}
		}
	}
}

// Early-stopping sweeps are inherently sequential; a Parallelism request
// must not change their output (the fan-out is bypassed).
func TestParallelSweepRespectsEarlyStop(t *testing.T) {
	s := testSpec(estimate.AVG)
	root := stats.NewStream(44)
	opts := SweepOptions{
		Fractions:      []float64{0.02, 0.05, 0.1, 0.2, 0.4},
		EarlyStopDelta: 0.05,
		Parallelism:    1,
	}
	seq, err := SweepFractionsCtx(context.Background(), s, opts, root.Child(5))
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := SweepFractionsCtx(context.Background(), s, opts, root.Child(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("early-stopping sweep changed under Parallelism=8:\n%+v\nvs\n%+v", par, seq)
	}
}
