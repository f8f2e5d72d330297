package estimate

import (
	"math"
	"testing"
	"testing/quick"

	"smokescreen/internal/stats"
)

// carLikePopulation builds a skewed, autocorrelated count series similar
// to per-frame detector outputs.
func carLikePopulation(n int, mean float64, seed uint64) []float64 {
	s := stats.NewStream(seed)
	out := make([]float64, n)
	current := s.Poisson(mean)
	for i := range out {
		if s.Bernoulli(0.3) {
			current = s.Poisson(mean)
		}
		out[i] = float64(current)
	}
	return out
}

func sampleFrom(population []float64, n int, s *stats.Stream) []float64 {
	idx := s.SampleWithoutReplacement(len(population), n)
	out := make([]float64, n)
	for i, j := range idx {
		out[i] = population[j]
	}
	return out
}

func TestAggString(t *testing.T) {
	names := map[Agg]string{AVG: "AVG", SUM: "SUM", COUNT: "COUNT", MAX: "MAX", MIN: "MIN"}
	for agg, want := range names {
		if agg.String() != want {
			t.Fatalf("%v.String() = %q", agg, agg.String())
		}
		back, err := ParseAgg(want)
		if err != nil || back != agg {
			t.Fatalf("ParseAgg(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseAgg("MEDIAN"); err == nil {
		t.Fatal("ParseAgg accepted unsupported aggregate")
	}
}

func TestIsExtremum(t *testing.T) {
	if AVG.IsExtremum() || SUM.IsExtremum() || COUNT.IsExtremum() {
		t.Fatal("mean aggregates flagged as extremum")
	}
	if !MAX.IsExtremum() || !MIN.IsExtremum() {
		t.Fatal("MAX/MIN not flagged as extremum")
	}
}

func TestParamsValidation(t *testing.T) {
	pop := []float64{1, 2, 3}
	if _, err := Smokescreen(AVG, pop, 3, Params{Delta: 0, R: 0.99}); err == nil {
		t.Fatal("delta 0 accepted")
	}
	if _, err := Smokescreen(AVG, pop, 3, Params{Delta: 0.05, R: 1}); err == nil {
		t.Fatal("r = 1 accepted")
	}
	if _, err := Smokescreen(AVG, nil, 3, DefaultParams()); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := Smokescreen(AVG, pop, 2, DefaultParams()); err == nil {
		t.Fatal("sample larger than population accepted")
	}
}

func TestAvgFullSampleIsExact(t *testing.T) {
	// Sampling the whole population drives rho_N to 0: the bound collapses
	// and the estimate equals the true mean.
	pop := carLikePopulation(500, 2, 1)
	est, err := Smokescreen(AVG, pop, len(pop), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	truth := stats.Mean(pop)
	if math.Abs(est.Value-truth) > 1e-9 {
		t.Fatalf("full-sample AVG = %v, want %v", est.Value, truth)
	}
	if est.ErrBound > 1e-9 {
		t.Fatalf("full-sample bound = %v, want ~0", est.ErrBound)
	}
}

func TestAvgDegenerateSamples(t *testing.T) {
	// A constant *partial* sample carries no range information: the bound
	// honestly degenerates to 1 (the unseen frames could be anything).
	est, err := Smokescreen(AVG, []float64{0, 0, 0}, 100, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if est.ErrBound != 1 {
		t.Fatalf("constant partial sample: %+v", est)
	}
	// A constant FULL sample is exact.
	est, err = Smokescreen(AVG, []float64{2, 2, 2}, 3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 2 || est.ErrBound != 0 {
		t.Fatalf("constant full sample: %+v", est)
	}
	// Small noisy sample whose interval crosses zero: LB = 0 => err = 1.
	est, err = Smokescreen(AVG, []float64{0, 0, 0, 5}, 10000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.ErrBound != 1 {
		t.Fatalf("zero-crossing interval: %+v", est)
	}
}

func TestSumScalesAvg(t *testing.T) {
	pop := carLikePopulation(2000, 3, 2)
	s := stats.NewStream(3)
	sample := sampleFrom(pop, 200, s)
	a, _ := Smokescreen(AVG, sample, len(pop), DefaultParams())
	sum, _ := Smokescreen(SUM, sample, len(pop), DefaultParams())
	if math.Abs(sum.Value-a.Value*float64(len(pop))) > 1e-9 {
		t.Fatalf("SUM = %v, want AVG*N = %v", sum.Value, a.Value*float64(len(pop)))
	}
	if sum.ErrBound != a.ErrBound {
		t.Fatal("SUM bound must equal AVG bound")
	}
}

func TestCountOnIndicators(t *testing.T) {
	// COUNT over predicate indicators equals SUM of 0/1.
	pop := make([]float64, 1000)
	for i := range pop {
		if i%3 == 0 {
			pop[i] = 1
		}
	}
	est, err := Smokescreen(COUNT, pop, len(pop), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-334) > 1e-9 {
		t.Fatalf("COUNT = %v, want 334", est.Value)
	}
}

// coverageTest empirically verifies P(true error <= bound) >= 1-delta.
func coverageTest(t *testing.T, agg Agg, estimator func(sample []float64, N int) (Estimate, error)) {
	t.Helper()
	const (
		popSize = 3000
		n       = 80
		trials  = 400
		delta   = 0.05
	)
	pop := carLikePopulation(popSize, 1.8, 11)
	p := DefaultParams()
	root := stats.NewStream(13)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		sample := sampleFrom(pop, n, root.Child(uint64(trial)))
		est, err := estimator(sample, popSize)
		if err != nil {
			t.Fatal(err)
		}
		audit, err := Audit(agg, est, pop, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit.TrueError <= est.ErrBound {
			covered++
		}
	}
	rate := float64(covered) / trials
	slack := 3 * math.Sqrt(delta*(1-delta)/trials)
	if rate < 1-delta-slack {
		t.Fatalf("%v coverage = %.3f, want >= %.3f", agg, rate, 1-delta-slack)
	}
}

func TestSmokescreenCoverageAVG(t *testing.T) {
	coverageTest(t, AVG, func(sample []float64, N int) (Estimate, error) {
		return Smokescreen(AVG, sample, N, DefaultParams())
	})
}

func TestSmokescreenCoverageSUM(t *testing.T) {
	coverageTest(t, SUM, func(sample []float64, N int) (Estimate, error) {
		return Smokescreen(SUM, sample, N, DefaultParams())
	})
}

func TestSmokescreenCoverageMAX(t *testing.T) {
	coverageTest(t, MAX, func(sample []float64, N int) (Estimate, error) {
		return Smokescreen(MAX, sample, N, DefaultParams())
	})
}

func TestSmokescreenCoverageMIN(t *testing.T) {
	coverageTest(t, MIN, func(sample []float64, N int) (Estimate, error) {
		return Smokescreen(MIN, sample, N, DefaultParams())
	})
}

func TestBaselineCoverage(t *testing.T) {
	for _, b := range []Baseline{EBGS, Hoeffding, HoeffdingSerfling} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			coverageTest(t, AVG, func(sample []float64, N int) (Estimate, error) {
				return BaselineEstimate(b, AVG, sample, N, DefaultParams())
			})
		})
	}
	t.Run("Stein", func(t *testing.T) {
		coverageTest(t, MAX, func(sample []float64, N int) (Estimate, error) {
			return BaselineEstimate(Stein, MAX, sample, N, DefaultParams())
		})
	})
}

func TestSmokescreenTighterThanSafeBaselines(t *testing.T) {
	// On the same samples, the Smokescreen bound must be tighter (on
	// average) than every safe baseline — the paper's Figure 4 ordering.
	const (
		popSize = 3000
		trials  = 100
	)
	pop := carLikePopulation(popSize, 1.8, 17)
	p := DefaultParams()
	root := stats.NewStream(19)
	for _, n := range []int{30, 100, 300} {
		var ours, hs, hoef, ebgsSum float64
		for trial := 0; trial < trials; trial++ {
			sample := sampleFrom(pop, n, root.ChildN(uint64(n), uint64(trial)))
			e, _ := Smokescreen(AVG, sample, popSize, p)
			ours += e.ErrBound
			for _, b := range []Baseline{HoeffdingSerfling, Hoeffding, EBGS} {
				be, _ := BaselineEstimate(b, AVG, sample, popSize, p)
				v := be.ErrBound
				if math.IsInf(v, 1) {
					v = 10 // cap unbounded baselines for averaging
				}
				switch b {
				case HoeffdingSerfling:
					hs += v
				case Hoeffding:
					hoef += v
				case EBGS:
					ebgsSum += v
				}
			}
		}
		if !(ours < hs && hs < hoef) {
			t.Fatalf("n=%d: bound ordering violated: ours %v, HS %v, Hoeffding %v", n, ours, hs, hoef)
		}
		if ours >= ebgsSum {
			t.Fatalf("n=%d: ours %v not tighter than EBGS %v", n, ours, ebgsSum)
		}
	}
}

func TestCLTUndercoverage(t *testing.T) {
	// CLT must fail the 95% guarantee at small n — the behaviour Figure 5
	// documents. The dominant failure mechanism on video workloads is a
	// (near-)constant sample: COUNT indicators over dense traffic are
	// almost always 1, so a small sample often has zero variance, the CLT
	// interval collapses to a point, and the bound undershoots whenever
	// the true indicator fraction is below 1. Range-based bounds cannot
	// collapse this way.
	const (
		popSize = 15000
		n       = 45 // f = 0.003 on a UA-DETRAC-sized corpus
		trials  = 800
	)
	pop := make([]float64, popSize)
	s := stats.NewStream(23)
	for i := range pop {
		if !s.Bernoulli(0.03) { // 97% of frames contain a car
			pop[i] = 1
		}
	}
	p := DefaultParams()
	root := stats.NewStream(29)
	cltCovered, oursCovered := 0, 0
	for trial := 0; trial < trials; trial++ {
		sample := sampleFrom(pop, n, root.Child(uint64(trial)))
		clt, err := BaselineEstimate(CLT, COUNT, sample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := Smokescreen(COUNT, sample, popSize, p)
		if err != nil {
			t.Fatal(err)
		}
		if a, _ := Audit(COUNT, clt, pop, p); a.TrueError <= clt.ErrBound {
			cltCovered++
		}
		if a, _ := Audit(COUNT, ours, pop, p); a.TrueError <= ours.ErrBound {
			oursCovered++
		}
	}
	cltRate := float64(cltCovered) / trials
	oursRate := float64(oursCovered) / trials
	if cltRate >= 0.95 {
		t.Fatalf("CLT coverage %.3f did not undershoot at n=%d", cltRate, n)
	}
	if oursRate < 0.95-3*math.Sqrt(0.05*0.95/trials) {
		t.Fatalf("Smokescreen coverage %.3f fell with CLT's", oursRate)
	}
}

func TestSteinLooserThanSmokescreenAtSmallFractions(t *testing.T) {
	const popSize = 5000
	pop := carLikePopulation(popSize, 4, 31)
	p := DefaultParams()
	root := stats.NewStream(37)
	for _, n := range []int{50, 150} {
		var ours, steins float64
		for trial := 0; trial < 50; trial++ {
			sample := sampleFrom(pop, n, root.ChildN(uint64(n), uint64(trial)))
			a, _ := Smokescreen(MAX, sample, popSize, p)
			b, _ := BaselineEstimate(Stein, MAX, sample, popSize, p)
			if a.Value != b.Value {
				t.Fatal("MAX estimates should coincide (same quantile estimator)")
			}
			ours += a.ErrBound
			steins += b.ErrBound
		}
		if ours >= steins {
			t.Fatalf("n=%d: our MAX bound %v not tighter than Stein %v", n, ours, steins)
		}
	}
}

func TestQuantileValueDefinition(t *testing.T) {
	sample := []float64{1, 2, 2, 3, 9}
	est, err := Smokescreen(MAX, sample, 1000, Params{Delta: 0.05, R: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 9 {
		t.Fatalf("0.99-quantile of small sample = %v, want 9", est.Value)
	}
	est, err = Smokescreen(MIN, sample, 1000, Params{Delta: 0.05, R: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 1 {
		t.Fatalf("0.01-quantile = %v, want 1", est.Value)
	}
}

func TestTrueAnswer(t *testing.T) {
	pop := []float64{1, 2, 3, 4}
	p := DefaultParams()
	if v, _ := TrueAnswer(AVG, pop, p); v != 2.5 {
		t.Fatalf("AVG = %v", v)
	}
	if v, _ := TrueAnswer(SUM, pop, p); v != 10 {
		t.Fatalf("SUM = %v", v)
	}
	if v, _ := TrueAnswer(MAX, pop, p); v != 4 {
		t.Fatalf("MAX = %v", v)
	}
	if v, _ := TrueAnswer(MIN, pop, p); v != 1 {
		t.Fatalf("MIN = %v", v)
	}
	if _, err := TrueAnswer(AVG, nil, p); err == nil {
		t.Fatal("empty population accepted")
	}
}

func TestTrueErrorRankMetric(t *testing.T) {
	pop := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p := Params{Delta: 0.05, R: 0.99}
	// Audit reports the paper's metric per aggregate — rank error for
	// MAX/MIN (true MAX, the 0.99 quantile, is 10 at rank 10; 8 has rank 8),
	// value error otherwise — and Held exactly when the bound is not below
	// it.
	for _, tc := range []struct {
		agg     Agg
		est     Estimate
		trueErr float64
		held    bool
	}{
		{MAX, Estimate{Value: 8, ErrBound: 0.25}, 0.2, true},
		{MAX, Estimate{Value: 8, ErrBound: 0.15}, 0.2, false}, // value error would be 0.2 too; rank error decides
		{MAX, Estimate{Value: 5, ErrBound: 0.5}, 0.5, true},   // value error 0.5, rank error 0.5
		{MIN, Estimate{Value: 3, ErrBound: 1}, 2, false},      // truth 1 (rank 1), answer rank 3
		{AVG, Estimate{Value: 6.05, ErrBound: 0.09}, 0.1, false},
		{AVG, Estimate{Value: 6.05, ErrBound: 0.11}, 0.1, true},
		{SUM, Estimate{Value: 60.5, ErrBound: 0.11}, 0.1, true},
	} {
		audit, err := Audit(tc.agg, tc.est, pop, p)
		if err != nil {
			t.Fatal(err)
		}
		wantTruth, _ := TrueAnswer(tc.agg, pop, p)
		if math.Abs(audit.TrueError-tc.trueErr) > 1e-12 || audit.Truth != wantTruth || audit.Held != tc.held {
			t.Errorf("Audit(%v, %+v) = %+v, want true error %v, truth %v, held %v", tc.agg, tc.est, audit, tc.trueErr, wantTruth, tc.held)
		}
	}
	// SAMPLE 1.0: the estimate of a full sample has a bound of exactly 0 and
	// differs from the truth by summation order alone — a few ulps, which
	// must not read as a violated bound. The sample is the population in
	// another order, as a sampler without replacement delivers it.
	uneven := make([]float64, 1000)
	for i := range uneven {
		uneven[i] = float64(i%7) + 0.1*float64(i%3)
	}
	shuffled := make([]float64, len(uneven))
	for i, j := range stats.NewStream(1).Perm(len(uneven)) {
		shuffled[i] = uneven[j]
	}
	indicator := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			if x >= 3 {
				out[i] = 1
			}
		}
		return out
	}
	for _, tc := range []struct {
		agg         Agg
		sample, pop []float64
	}{
		{AVG, shuffled, uneven},
		{SUM, shuffled, uneven},
		{COUNT, indicator(shuffled), indicator(uneven)},
	} {
		est, err := Smokescreen(tc.agg, tc.sample, len(tc.pop), p)
		if err != nil {
			t.Fatal(err)
		}
		audit, err := Audit(tc.agg, est, tc.pop, p)
		if err != nil {
			t.Fatal(err)
		}
		if est.ErrBound != 0 || audit.TrueError > 1e-13 || !audit.Held {
			t.Errorf("%v at SAMPLE 1.0: estimate %+v audited %+v, want bound 0 held", tc.agg, est, audit)
		}
		// The tolerance is ulps of the truth, not a percentage.
		est.Value *= 1 + 1e-9
		if audit, _ := Audit(tc.agg, est, tc.pop, p); audit.Held {
			t.Errorf("%v: a 1e-9 relative error held against a bound of 0", tc.agg)
		}
	}
	// A zero truth answered with zero is an exact answer, not 0/0: the
	// hand-rolled |v-truth|/truth this replaces printed NaN for it.
	zeros := []float64{0, 0, 0, 1, 2}
	for _, agg := range []Agg{MIN, AVG} {
		pop := zeros
		if agg == AVG {
			pop = zeros[:3]
		}
		audit, err := Audit(agg, Estimate{Value: 0, ErrBound: 0}, pop, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit.Truth != 0 || audit.TrueError != 0 || !audit.Held {
			t.Errorf("Audit(%v) of an exact zero answer = %+v", agg, audit)
		}
	}
	if _, err := Audit(AVG, Estimate{}, nil, p); err == nil {
		t.Error("Audit accepted an empty population")
	}
}

func TestBaselineSupportMatrix(t *testing.T) {
	for _, b := range MeanBaselines() {
		if !b.Supports(AVG) || b.Supports(MAX) {
			t.Fatalf("%v support matrix wrong", b)
		}
	}
	if !Stein.Supports(MAX) || Stein.Supports(AVG) {
		t.Fatal("Stein support matrix wrong")
	}
	if _, err := BaselineEstimate(Stein, AVG, []float64{1}, 10, DefaultParams()); err == nil {
		t.Fatal("Stein on AVG accepted")
	}
	if _, err := BaselineEstimate(CLT, MAX, []float64{1}, 10, DefaultParams()); err == nil {
		t.Fatal("CLT on MAX accepted")
	}
}

func TestSumEqualsAvgTimesNProperty(t *testing.T) {
	property := func(raw []uint8, nRaw uint16) bool {
		if len(raw) < 2 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v % 16)
		}
		N := len(sample) + int(nRaw)%5000
		p := DefaultParams()
		a, errA := Smokescreen(AVG, sample, N, p)
		s, errS := Smokescreen(SUM, sample, N, p)
		if errA != nil || errS != nil {
			return false
		}
		return math.Abs(s.Value-a.Value*float64(N)) < 1e-9*(1+math.Abs(s.Value)) &&
			s.ErrBound == a.ErrBound
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSmokescreenBoundsAlwaysNonNegativeProperty(t *testing.T) {
	property := func(raw []uint8, aggRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v % 32)
		}
		agg := Agg(aggRaw % 6)
		est, err := Smokescreen(agg, sample, len(sample)+100, DefaultParams())
		if err != nil {
			return false
		}
		return est.ErrBound >= 0 && !math.IsNaN(est.ErrBound) && !math.IsNaN(est.Value)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
