package estimate

import (
	"math"
	"testing"

	"smokescreen/internal/stats"
)

func TestStreamingValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewStreamingEstimator(MAX, 100, p, false); err == nil {
		t.Fatal("MAX streaming accepted")
	}
	if _, err := NewStreamingEstimator(VAR, 100, p, false); err == nil {
		t.Fatal("VAR streaming accepted")
	}
	if _, err := NewStreamingEstimator(AVG, 0, p, false); err == nil {
		t.Fatal("zero population accepted")
	}
	if _, err := NewStreamingEstimator(AVG, 100, Params{Delta: 0, R: 0.5}, false); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestStreamingMatchesBatchPointwise(t *testing.T) {
	// After observing exactly the sample, the pointwise streaming estimate
	// must equal the batch Algorithm 1 estimate.
	pop := carLikePopulation(2000, 2.5, 201)
	sample := sampleFrom(pop, 200, stats.NewStream(203))
	p := DefaultParams()
	batch, err := Smokescreen(AVG, sample, len(pop), p)
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := NewStreamingEstimator(AVG, len(pop), p, false)
	if err != nil {
		t.Fatal(err)
	}
	var last Estimate
	for _, x := range sample {
		last = streaming.Observe(x)
	}
	if math.Abs(last.Value-batch.Value) > 1e-12 || math.Abs(last.ErrBound-batch.ErrBound) > 1e-12 {
		t.Fatalf("streaming %+v != batch %+v", last, batch)
	}
	if streaming.Count() != 200 {
		t.Fatalf("Count = %d", streaming.Count())
	}
}

func TestStreamingBoundsTighten(t *testing.T) {
	pop := carLikePopulation(2000, 2.5, 207)
	p := DefaultParams()
	streaming, _ := NewStreamingEstimator(AVG, len(pop), p, false)
	s := stats.NewStream(209)
	var at10, at100, at1000 float64
	for i, idx := range s.SampleWithoutReplacement(len(pop), 1000) {
		est := streaming.Observe(pop[idx])
		switch i + 1 {
		case 10:
			at10 = est.ErrBound
		case 100:
			at100 = est.ErrBound
		case 1000:
			at1000 = est.ErrBound
		}
	}
	if !(at10 > at100 && at100 > at1000) {
		t.Fatalf("bounds did not tighten: %v, %v, %v", at10, at100, at1000)
	}
}

func TestStreamingAnyTimeLooserPointwiseAtFixedN(t *testing.T) {
	pop := carLikePopulation(2000, 2.5, 211)
	sample := sampleFrom(pop, 300, stats.NewStream(213))
	p := DefaultParams()
	pointwise, _ := NewStreamingEstimator(AVG, len(pop), p, false)
	anytime, _ := NewStreamingEstimator(AVG, len(pop), p, true)
	var pw, at Estimate
	for _, x := range sample {
		pw = pointwise.Observe(x)
		at = anytime.Observe(x)
	}
	if at.ErrBound <= pw.ErrBound {
		t.Fatalf("any-time bound %v not looser than pointwise %v", at.ErrBound, pw.ErrBound)
	}
}

func TestStreamingAnyTimeUniformCoverage(t *testing.T) {
	// The any-time bound must cover the true error at EVERY prefix length
	// simultaneously in at least ~1-delta of trials. Like every
	// sample-range-based bound (including the paper's Algorithm 1), the
	// guarantee is conditional on the observed range approximating the
	// population range, which fails at tiny prefixes — so coverage is
	// checked from prefix length 10 onward, where the range has settled.
	const (
		popSize = 1500
		steps   = 150
		warmup  = 10
		trials  = 200
	)
	pop := carLikePopulation(popSize, 2.0, 217)
	truth := stats.Mean(pop)
	p := DefaultParams()
	root := stats.NewStream(219)
	allCovered := 0
	for trial := 0; trial < trials; trial++ {
		s := root.Child(uint64(trial))
		streaming, _ := NewStreamingEstimator(AVG, popSize, p, true)
		ok := true
		for step, idx := range s.SampleWithoutReplacement(popSize, steps) {
			est := streaming.Observe(pop[idx])
			if step+1 < warmup {
				continue
			}
			if stats.RelativeError(est.Value, truth) > est.ErrBound {
				ok = false
				break
			}
		}
		if ok {
			allCovered++
		}
	}
	rate := float64(allCovered) / trials
	slack := 3 * math.Sqrt(0.05*0.95/trials)
	if rate < 0.95-slack {
		t.Fatalf("any-time uniform coverage = %.3f", rate)
	}
}

func TestStreamingCountKnownRange(t *testing.T) {
	// A COUNT stream of all-ones must stay bounded (indicator range floor).
	p := DefaultParams()
	streaming, _ := NewStreamingEstimator(COUNT, 1000, p, false)
	var est Estimate
	for i := 0; i < 50; i++ {
		est = streaming.Observe(1)
	}
	if est.ErrBound >= 1 || est.ErrBound <= 0 {
		t.Fatalf("constant COUNT stream bound %v", est.ErrBound)
	}
	if est.Value <= 0 || est.Value > 1000 {
		t.Fatalf("COUNT value %v", est.Value)
	}
}

// frameSample draws k distinct frame indices from a population and pairs
// them with their outputs, the shape ObserveFrame consumes.
type frameObs struct {
	frame int
	x     float64
}

func frameSample(pop []float64, k int, s *stats.Stream) []frameObs {
	obs := make([]frameObs, 0, k)
	for _, idx := range s.SampleWithoutReplacement(len(pop), k) {
		obs = append(obs, frameObs{frame: idx, x: pop[idx]})
	}
	return obs
}

// estimatesMatch compares two estimates at the package's standard 1e-12
// tolerance: the estimator state is order-independent up to float addition
// reassociation, which perturbs the running sum in its last bits.
func estimatesMatch(a, b Estimate) bool {
	return math.Abs(a.Value-b.Value) <= 1e-12 &&
		math.Abs(a.ErrBound-b.ErrBound) <= 1e-12 &&
		a.Sample == b.Sample && a.N == b.N
}

// batchOf runs the batch Algorithm 1 estimator over the same sample.
func batchOf(t *testing.T, obs []frameObs, n int, p Params) Estimate {
	t.Helper()
	xs := make([]float64, len(obs))
	for i, o := range obs {
		xs[i] = o.x
	}
	est, err := Smokescreen(AVG, xs, n, p)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestStreamingFrameDedupOutOfOrderMatchesBatch(t *testing.T) {
	// Property: a frame-keyed stream with redelivered duplicates in an
	// arbitrary order matches the batch estimator on the clean sample.
	// Duplicates are dropped and the state is order-independent, so the
	// only slack is float summation order.
	pop := carLikePopulation(2000, 2.5, 221)
	p := DefaultParams()
	obs := frameSample(pop, 200, stats.NewStream(223))
	batch := batchOf(t, obs, len(pop), p)

	// Deliver every observation twice, in a shuffled order.
	deliveries := append(append([]frameObs(nil), obs...), obs...)
	shuffled := make([]frameObs, 0, len(deliveries))
	for _, i := range stats.NewStream(227).SampleWithoutReplacement(len(deliveries), len(deliveries)) {
		shuffled = append(shuffled, deliveries[i])
	}

	streaming, err := NewStreamingEstimator(AVG, len(pop), p, false)
	if err != nil {
		t.Fatal(err)
	}
	var last Estimate
	for _, o := range shuffled {
		last = streaming.ObserveFrame(o.frame, o.x)
	}
	if streaming.Count() != len(obs) {
		t.Fatalf("Count = %d after duplicate deliveries, want %d", streaming.Count(), len(obs))
	}
	if !estimatesMatch(last, batch) {
		t.Fatalf("deduplicated stream %+v != batch %+v", last, batch)
	}
}

func TestStreamingEmptyAndOverflow(t *testing.T) {
	p := DefaultParams()
	streaming, _ := NewStreamingEstimator(AVG, 3, p, false)
	if got := streaming.Current(); got.ErrBound != 1 {
		t.Fatalf("empty stream bound %v", got.ErrBound)
	}
	// Out-of-range frames panic like over-observing does.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range frame did not panic")
			}
		}()
		streaming.ObserveFrame(3, 1.0)
	}()
	streaming.Observe(1)
	streaming.Observe(2)
	streaming.Observe(3)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	streaming.Observe(4)
}
