package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalQuantile(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.841344746, 1.0},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-4) {
			t.Fatalf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("NormalQuantile endpoints not infinite")
	}
}

func TestZScore(t *testing.T) {
	if got := ZScore(0.05); !almostEqual(got, 1.959964, 1e-4) {
		t.Fatalf("ZScore(0.05) = %v", got)
	}
	if got := ZScore(0.01); !almostEqual(got, 2.575829, 1e-4) {
		t.Fatalf("ZScore(0.01) = %v", got)
	}
}

func TestNormalCDFInvertsQuantile(t *testing.T) {
	property := func(raw uint16) bool {
		p := (float64(raw%9998) + 1) / 10000
		// Phi(z) = erfc(-z/sqrt 2)/2 is the reference the quantile inverts.
		return almostEqual(0.5*math.Erfc(-NormalQuantile(p)/math.Sqrt2), p, 1e-9)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSerflingRho(t *testing.T) {
	// Mid-stream the (1-(n-1)/N) branch is smaller for n large; near the
	// start the other branch wins. Check both against direct evaluation.
	for _, c := range []struct{ n, N int }{{1, 10}, {5, 10}, {9, 10}, {100, 10000}} {
		a := 1 - float64(c.n-1)/float64(c.N)
		b := (1 - float64(c.n)/float64(c.N)) * (1 + 1/float64(c.n))
		want := math.Min(a, b)
		if got := SerflingRho(c.n, c.N); got != want {
			t.Fatalf("SerflingRho(%d,%d) = %v, want %v", c.n, c.N, got, want)
		}
	}
}

func TestSerflingRhoShrinksWithN(t *testing.T) {
	// Sampling a larger share of the population should never increase rho.
	const N = 1000
	prev := math.Inf(1)
	for n := 1; n <= N; n++ {
		rho := SerflingRho(n, N)
		if rho > prev+1e-12 {
			t.Fatalf("rho increased at n=%d: %v -> %v", n, prev, rho)
		}
		if rho < 0 || rho > 1+1e-12 {
			t.Fatalf("rho out of range at n=%d: %v", n, rho)
		}
		prev = rho
	}
	if got := SerflingRho(N, N); !almostEqual(got, 0, 1e-3) {
		t.Fatalf("rho at full sample = %v, want ~0", got)
	}
}

func TestHoeffdingSerflingTighterThanHoeffding(t *testing.T) {
	// Because rho_n <= 1, the Serfling half width never exceeds Hoeffding's.
	property := func(seedN, seedn uint16, rRaw uint8) bool {
		N := int(seedN)%5000 + 2
		n := int(seedn)%N + 1
		R := float64(rRaw) + 1
		hs := HoeffdingSerflingHalfWidth(R, n, N, 0.05)
		h := HoeffdingHalfWidth(R, n, 0.05)
		return hs <= h+1e-12
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// coverage empirically checks that halfWidth covers the true mean deviation
// with frequency at least 1-delta (minus binomial slack).
func coverage(t *testing.T, name string, halfWidth func(sample []float64, n, N int) float64) {
	t.Helper()
	const (
		N      = 2000
		n      = 60
		trials = 400
		delta  = 0.05
	)
	stream := NewStream(1234)
	population := make([]float64, N)
	for i := range population {
		// Skewed non-negative population similar to per-frame car counts.
		population[i] = float64(stream.Poisson(2.5))
	}
	mu := Mean(population)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := stream.Child(uint64(trial))
		idx := s.SampleWithoutReplacement(N, n)
		sample := make([]float64, n)
		for i, j := range idx {
			sample[i] = population[j]
		}
		I := halfWidth(sample, n, N)
		if math.Abs(Mean(sample)-mu) <= I {
			covered++
		}
	}
	rate := float64(covered) / trials
	// Allow three binomial standard deviations of slack below 1-delta.
	slack := 3 * math.Sqrt(delta*(1-delta)/trials)
	if rate < 1-delta-slack {
		t.Fatalf("%s coverage = %.3f, want >= %.3f", name, rate, 1-delta-slack)
	}
}

func TestHoeffdingSerflingCoverage(t *testing.T) {
	coverage(t, "Hoeffding-Serfling", func(sample []float64, n, N int) float64 {
		s := Summarize(sample)
		return HoeffdingSerflingHalfWidth(s.Range(), n, N, 0.05)
	})
}

func TestHoeffdingCoverage(t *testing.T) {
	coverage(t, "Hoeffding", func(sample []float64, n, N int) float64 {
		s := Summarize(sample)
		return HoeffdingHalfWidth(s.Range(), n, 0.05)
	})
}

func TestEmpiricalBernsteinCoverage(t *testing.T) {
	coverage(t, "empirical Bernstein", func(sample []float64, n, N int) float64 {
		s := Summarize(sample)
		return EmpiricalBernsteinHalfWidth(math.Sqrt(s.Var), s.Range(), n, 0.05)
	})
}

func TestEBGSLooserThanEmpiricalBernstein(t *testing.T) {
	// EBGS spends risk across all prefix lengths, so at any fixed n its
	// half width must exceed the plain empirical Bernstein width.
	property := func(nRaw uint16, sdRaw, rRaw uint8) bool {
		n := int(nRaw)%2000 + 2
		sd := float64(sdRaw) / 16
		R := sd*4 + 1
		return EBGSHalfWidth(sd, R, n, 0.05) >= EmpiricalBernsteinHalfWidth(sd, R, n, 0.05)-1e-12
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCLTUndercoversAtSmallN(t *testing.T) {
	// The CLT interval with sample standard deviation is known to
	// undercover for skewed data at very small n — the effect Figure 5 of
	// the paper documents. This test asserts the qualitative fact that CLT
	// coverage is lower than Hoeffding–Serfling coverage at n = 5.
	const (
		N      = 2000
		n      = 5
		trials = 2000
	)
	stream := NewStream(77)
	population := make([]float64, N)
	for i := range population {
		population[i] = float64(stream.Poisson(0.7))
	}
	mu := Mean(population)
	cltCovered, hsCovered := 0, 0
	for trial := 0; trial < trials; trial++ {
		s := stream.Child(uint64(trial))
		idx := s.SampleWithoutReplacement(N, n)
		sample := make([]float64, n)
		for i, j := range idx {
			sample[i] = population[j]
		}
		sum := Summarize(sample)
		dev := math.Abs(sum.Mean - mu)
		if dev <= CLTHalfWidth(math.Sqrt(sum.Var), n, 0.05) {
			cltCovered++
		}
		if dev <= HoeffdingSerflingHalfWidth(sum.Range(), n, N, 0.05) {
			hsCovered++
		}
	}
	if cltCovered >= hsCovered {
		t.Fatalf("CLT coverage %d not below Hoeffding-Serfling coverage %d", cltCovered, hsCovered)
	}
	if float64(cltCovered)/trials >= 0.95 {
		t.Fatalf("CLT coverage %.3f unexpectedly met the nominal level at n=5", float64(cltCovered)/trials)
	}
}

func TestHalfWidthPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"serfling-zero":  func() { SerflingRho(0, 10) },
		"serfling-over":  func() { SerflingRho(11, 10) },
		"hoeffding-zero": func() { HoeffdingHalfWidth(1, 0, 0.05) },
		"eb-zero":        func() { EmpiricalBernsteinHalfWidth(1, 1, 0, 0.05) },
		"clt-zero":       func() { CLTHalfWidth(1, 0, 0.05) },
		"ebgs-zero":      func() { EBGSHalfWidth(1, 1, 0, 0.05) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHypergeometricEmpirical(t *testing.T) {
	// Simulate draws of n from N with K successes and compare the hit
	// count's empirical mean/variance to the hypergeometric formulas.
	const (
		N, K, n  = 500, 120, 60
		trials   = 20000
		p        = float64(K) / N
		wantMean = n * p
		wantVar  = n * p * (1 - p) * (N - n) / (N - 1)
	)
	stream := NewStream(99)
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		s := stream.Child(uint64(trial))
		hits := 0
		for _, idx := range s.SampleWithoutReplacement(N, n) {
			if idx < K {
				hits++
			}
		}
		sum += float64(hits)
		sumSq += float64(hits) * float64(hits)
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Fatalf("empirical mean %v vs %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.08 {
		t.Fatalf("empirical variance %v vs %v", variance, wantVar)
	}
}

func TestFPCFactor(t *testing.T) {
	if got := FPCFactor(0, 10); got != 0 {
		t.Fatalf("FPCFactor(0,10) = %v", got)
	}
	if got := FPCFactor(10, 10); got != 0 {
		t.Fatalf("full sample FPC = %v, want 0", got)
	}
	want := math.Sqrt(90.0 / (10 * 99))
	if got := FPCFactor(10, 100); !almostEqual(got, want, 1e-12) {
		t.Fatalf("FPCFactor(10,100) = %v, want %v", got, want)
	}
}

func TestFrequencyDeviationClamps(t *testing.T) {
	if got := FrequencyDeviation(-0.5, 10, 100, 0.05); got != 0 {
		t.Fatalf("negative f should clamp to zero deviation, got %v", got)
	}
	if got := FrequencyDeviation(1.5, 10, 100, 0.05); got != 0 {
		t.Fatalf("f > 1 should clamp to zero deviation, got %v", got)
	}
	mid := FrequencyDeviation(0.5, 10, 100, 0.05)
	edge := FrequencyDeviation(0.99, 10, 100, 0.05)
	if mid <= edge {
		t.Fatalf("deviation should be maximal at f=0.5: mid=%v edge=%v", mid, edge)
	}
}

func TestFrequencyDeviationCoverage(t *testing.T) {
	// The sampled cumulative frequency should stay within the deviation
	// bound with frequency ~1-delta.
	const (
		N, K, n = 2000, 1960, 100 // f close to 1, as in MAX estimation
		trials  = 2000
		delta   = 0.05
	)
	f := float64(K) / N
	stream := NewStream(55)
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := stream.Child(uint64(trial))
		hits := 0
		for _, idx := range s.SampleWithoutReplacement(N, n) {
			if idx < K {
				hits++
			}
		}
		fhat := float64(hits) / n
		if math.Abs(fhat-f) <= FrequencyDeviation(f, n, N, delta) {
			covered++
		}
	}
	rate := float64(covered) / trials
	slack := 3 * math.Sqrt(delta*(1-delta)/trials)
	if rate < 1-delta-slack {
		t.Fatalf("frequency deviation coverage = %.3f", rate)
	}
}
