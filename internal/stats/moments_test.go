package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Var, 2.5, 1e-12) {
		t.Fatalf("Var = %v, want 2.5", s.Var)
	}
	if s.Range() != 4 {
		t.Fatalf("Range = %v, want 4", s.Range())
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.Var != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Var != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeMatchesNaive(t *testing.T) {
	property := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes moderate so the naive two-pass formula is
			// itself accurate enough to compare against.
			xs = append(xs, math.Mod(v, 1000))
		}
		if len(xs) < 2 {
			return true
		}
		s := Summarize(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return almostEqual(s.Mean, mean, 1e-9*(1+math.Abs(mean))) &&
			almostEqual(s.Var, variance, 1e-9*(1+variance))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
}

func TestQuantileDefinition(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileMatchesCumulativeFrequency(t *testing.T) {
	// Property: Quantile(xs, q) is the smallest distinct value whose
	// cumulative frequency is >= q — the paper's definition.
	property := func(raw []uint8, qRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v % 16)
		}
		q := (float64(qRaw%999) + 1) / 1000
		got := Quantile(xs, q)
		values, freqs := DistinctFrequencies(xs)
		cum := 0.0
		for i, f := range freqs {
			cum += f
			if cum >= q-1e-12 {
				return got == values[i]
			}
		}
		return got == values[len(values)-1]
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(empty) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestRank(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 5}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 1}, {2, 3}, {2.5, 3}, {5, 5}, {9, 5},
	}
	for _, c := range cases {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got := RankSorted(sorted, c.v); got != c.want {
			t.Fatalf("RankSorted(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRankAgreesWithRankSorted(t *testing.T) {
	property := func(raw []uint8, vRaw uint8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v % 32)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		v := float64(vRaw % 40)
		rank := 0
		for _, x := range xs {
			if x <= v {
				rank++
			}
		}
		return rank == RankSorted(sorted, v)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(11, 10); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("RelativeError = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v", got)
	}
	if got := RelativeError(-11, -10); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("RelativeError negative = %v", got)
	}
}

func TestDistinctFrequencies(t *testing.T) {
	values, freqs := DistinctFrequencies([]float64{2, 1, 2, 3, 2, 1})
	wantValues := []float64{1, 2, 3}
	wantFreqs := []float64{2.0 / 6, 3.0 / 6, 1.0 / 6}
	if len(values) != 3 {
		t.Fatalf("values = %v", values)
	}
	for i := range wantValues {
		if values[i] != wantValues[i] || !almostEqual(freqs[i], wantFreqs[i], 1e-12) {
			t.Fatalf("DistinctFrequencies = %v %v", values, freqs)
		}
	}
	var sum float64
	for _, f := range freqs {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("frequencies sum to %v", sum)
	}
}

func TestDistinctFrequenciesEmpty(t *testing.T) {
	values, freqs := DistinctFrequencies(nil)
	if values != nil || freqs != nil {
		t.Fatal("expected nil results for empty input")
	}
}
