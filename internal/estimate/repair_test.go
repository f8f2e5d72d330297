package estimate

import (
	"math"
	"testing"

	"smokescreen/internal/stats"
)

// biasedSample simulates a non-random intervention: outputs systematically
// undercounted by the given factor (what low resolution does to detector
// counts).
func biasedSample(population []float64, n int, factor float64, s *stats.Stream) []float64 {
	sample := sampleFrom(population, n, s)
	for i := range sample {
		sample[i] = math.Floor(sample[i] * factor)
	}
	return sample
}

func TestUncorrectedBoundFailsUnderBias(t *testing.T) {
	// Without repair, the Algorithm 1 bound computed from systematically
	// biased outputs undershoots the true error — the failure mode circled
	// in red in the paper's Figure 6.
	const popSize = 3000
	pop := carLikePopulation(popSize, 3, 41)
	p := DefaultParams()
	root := stats.NewStream(43)
	failures := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		sample := biasedSample(pop, 400, 0.6, root.Child(uint64(trial)))
		est, err := Smokescreen(AVG, sample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit, _ := Audit(AVG, est, pop, p); audit.TrueError > est.ErrBound {
			failures++
		}
	}
	if failures < trials/2 {
		t.Fatalf("uncorrected bound failed only %d/%d times; bias simulation too weak", failures, trials)
	}
}

func TestRepairedBoundHoldsUnderBias(t *testing.T) {
	// With a correction set the repaired bound must cover the true error
	// with probability >= 1-delta even under systematic bias.
	const (
		popSize = 3000
		m       = 300
		trials  = 300
	)
	pop := carLikePopulation(popSize, 3, 47)
	p := DefaultParams()
	root := stats.NewStream(53)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := root.Child(uint64(trial))
		degradedSample := biasedSample(pop, 400, 0.6, s)
		degraded, err := Smokescreen(AVG, degradedSample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		corrSample := sampleFrom(pop, m, s.Child(1))
		corr, err := NewCorrection(AVG, corrSample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := corr.Repair(AVG, degraded, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit, _ := Audit(AVG, degraded, pop, p); audit.TrueError <= bound {
			covered++
		}
	}
	rate := float64(covered) / trials
	slack := 3 * math.Sqrt(0.05*0.95/trials)
	if rate < 0.95-slack {
		t.Fatalf("repaired coverage = %.3f", rate)
	}
}

func TestRepairedQuantileBoundHoldsUnderBias(t *testing.T) {
	const (
		popSize = 3000
		m       = 400
		trials  = 300
	)
	pop := carLikePopulation(popSize, 4, 59)
	p := DefaultParams()
	root := stats.NewStream(61)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := root.Child(uint64(trial))
		degradedSample := biasedSample(pop, 400, 0.7, s)
		degraded, err := Smokescreen(MAX, degradedSample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		corrSample := sampleFrom(pop, m, s.Child(1))
		corr, err := NewCorrection(MAX, corrSample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := corr.Repair(MAX, degraded, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit, _ := Audit(MAX, degraded, pop, p); audit.TrueError <= bound {
			covered++
		}
	}
	rate := float64(covered) / trials
	slack := 3 * math.Sqrt(0.05*0.95/trials)
	if rate < 0.95-slack {
		t.Fatalf("repaired MAX coverage = %.3f", rate)
	}
}

func TestRepairedPicksTighterForRandomOnly(t *testing.T) {
	// For random-only interventions Repaired takes the tighter of the two
	// bounds; for non-random it must always use the repaired one.
	pop := carLikePopulation(2000, 2, 67)
	p := DefaultParams()
	s := stats.NewStream(71)
	// Large unbiased sample: its own bound is tight.
	degraded, err := Smokescreen(AVG, sampleFrom(pop, 800, s), len(pop), p)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny correction set: loose bound.
	corr, err := NewCorrection(AVG, sampleFrom(pop, 20, s.Child(1)), len(pop), p)
	if err != nil {
		t.Fatal(err)
	}
	randomOnly, err := corr.Repaired(AVG, degraded, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if randomOnly.ErrBound != degraded.ErrBound {
		t.Fatalf("random-only did not keep the tighter own bound: %v vs %v", randomOnly.ErrBound, degraded.ErrBound)
	}
	nonRandom, err := corr.Repaired(AVG, degraded, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if nonRandom.ErrBound <= degraded.ErrBound {
		t.Fatal("non-random repair should not silently keep the unsafe bound")
	}
}

func TestCorrectionImprovesSmallRandomSamples(t *testing.T) {
	// Paper Section 5.2.2 (first row of Figure 6): when the correction set
	// is much larger than the degraded sample, the repaired bound is
	// tighter even for random interventions.
	pop := carLikePopulation(3000, 2.5, 73)
	p := DefaultParams()
	root := stats.NewStream(79)
	improved := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		s := root.Child(uint64(trial))
		// A moderate degraded sample: large enough that its interval does
		// not collapse to [0, UB] (a collapsed estimate reports Y=0 and
		// err=1, which no correction can improve), small enough that the
		// much larger correction set carries more information.
		degraded, err := Smokescreen(AVG, sampleFrom(pop, 40, s), len(pop), p)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := NewCorrection(AVG, sampleFrom(pop, 800, s.Child(1)), len(pop), p)
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := corr.Repaired(AVG, degraded, p, true)
		if err != nil {
			t.Fatal(err)
		}
		if repaired.ErrBound < degraded.ErrBound {
			improved++
		}
	}
	if improved < trials/2 {
		t.Fatalf("large correction set improved only %d/%d small-sample bounds", improved, trials)
	}
}

func TestRepairDegenerateCorrection(t *testing.T) {
	p := DefaultParams()
	corr, err := NewCorrection(AVG, []float64{0, 0, 0}, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	// Zero correction answer with zero degraded answer: bound = err_v.
	b, err := corr.Repair(AVG, Estimate{Value: 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	if b != corr.Estimate.ErrBound {
		t.Fatalf("bound = %v, want err_v", b)
	}
	// Zero correction answer with nonzero degraded answer: unbounded.
	b, err = corr.Repair(AVG, Estimate{Value: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b, 1) {
		t.Fatalf("bound = %v, want +Inf", b)
	}
}

// TestCorrectionSize: the correction set keeps every one of its m frames,
// the m its bounds are computed over.
func TestCorrectionSize(t *testing.T) {
	corr, err := NewCorrection(AVG, []float64{1, 2, 3}, 100, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(corr.Sample) != 3 {
		t.Fatalf("m = %d", len(corr.Sample))
	}
}

func TestNewCorrectionRejectsEmpty(t *testing.T) {
	if _, err := NewCorrection(AVG, nil, 100, DefaultParams()); err == nil {
		t.Fatal("empty correction set accepted")
	}
}
