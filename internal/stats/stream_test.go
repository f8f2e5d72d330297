package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestChildIndependence(t *testing.T) {
	root := NewStream(7)
	c1 := root.Child(1)
	c2 := root.Child(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different labels produced identical output")
	}
	// Deriving a child must not advance the parent.
	p1 := NewStream(7)
	p2 := NewStream(7)
	p2.Child(99)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("deriving a child advanced the parent stream")
	}
}

func TestChildOrderMatters(t *testing.T) {
	root := NewStream(7)
	a := root.ChildN(1, 2).Uint64()
	b := root.ChildN(2, 1).Uint64()
	if a == b {
		t.Fatal("ChildN(1,2) and ChildN(2,1) produced identical output")
	}
}

func TestIntnRange(t *testing.T) {
	s := NewStream(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewStream(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.3, 2, 8, 50} {
		s := NewStream(17)
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Poisson(%v) empirical mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := NewStream(1)
	if got := s.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	property := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%500 + 1
		k := int(kRaw) % (n + 1)
		s := NewStream(seed)
		idx := s.SampleWithoutReplacement(n, k)
		if len(idx) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range idx {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of the n items should appear in the sample with probability k/n.
	const n, k, trials = 20, 5, 40000
	s := NewStream(23)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("item %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	s := NewStream(29)
	idx := s.SampleWithoutReplacement(10, 10)
	seen := make([]bool, 10)
	for _, v := range idx {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("full sample missing index %d", i)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	NewStream(1).SampleWithoutReplacement(3, 4)
}

func TestBernoulliProbability(t *testing.T) {
	s := NewStream(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", got)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
