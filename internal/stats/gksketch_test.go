package stats

import (
	"math"
	"sort"
	"testing"
)

func TestGKSketchValidation(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		if _, err := NewGKSketch(eps); err == nil {
			t.Fatalf("epsilon %v accepted", eps)
		}
	}
	s, err := NewGKSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty quantile did not panic")
		}
	}()
	s.Quantile(0.5)
}

func TestGKSketchRankAccuracy(t *testing.T) {
	const (
		n   = 20000
		eps = 0.01
	)
	stream := NewStream(401)
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(stream.Poisson(6)) + stream.Float64()
	}
	s, err := NewGKSketch(eps)
	if err != nil {
		t.Fatal(err)
	}
	s.InsertAll(values)
	if s.n != n {
		t.Fatalf("count = %d", s.n)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Quantile(q)
		rank := RankSorted(sorted, got)
		target := q * float64(n)
		if math.Abs(float64(rank)-target) > 2*eps*float64(n)+1 {
			t.Fatalf("q=%v: rank %d, target %.0f, tolerance %.0f", q, rank, target, 2*eps*float64(n))
		}
	}
}

func TestGKSketchSpaceBound(t *testing.T) {
	const (
		n   = 50000
		eps = 0.02
	)
	stream := NewStream(403)
	s, _ := NewGKSketch(eps)
	for i := 0; i < n; i++ {
		s.Insert(stream.Float64() * 100)
	}
	// O((1/eps) * log(eps*n)) with a generous constant.
	limit := int(20 / eps * math.Log2(eps*float64(n)+2))
	if size := len(s.tuples); size > limit {
		t.Fatalf("sketch holds %d tuples, budget %d (n=%d)", size, limit, n)
	} else if size >= n/4 {
		t.Fatalf("sketch barely compressed: %d tuples for %d values", size, n)
	}
}

func TestGKSketchExtremes(t *testing.T) {
	s, _ := NewGKSketch(0.05)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	if got := s.Quantile(0); got > 6 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := s.Quantile(1); got < 95 {
		t.Fatalf("Quantile(1) = %v", got)
	}
	if got := s.Quantile(-2); got > 6 {
		t.Fatalf("clamped low quantile = %v", got)
	}
	if got := s.Quantile(2); got < 95 {
		t.Fatalf("clamped high quantile = %v", got)
	}
}

func TestGKSketchSortedAndReversedInput(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(10000 - i) },
		"constant":   func(i int) float64 { return 7 },
	} {
		s, _ := NewGKSketch(0.02)
		const n = 10000
		for i := 0; i < n; i++ {
			s.Insert(gen(i))
		}
		med := s.Quantile(0.5)
		switch name {
		case "ascending":
			if med < float64(n)*0.46 || med > float64(n)*0.54 {
				t.Fatalf("%s: median %v", name, med)
			}
		case "descending":
			if med < float64(n)*0.46 || med > float64(n)*0.54 {
				t.Fatalf("%s: median %v", name, med)
			}
		case "constant":
			if med != 7 {
				t.Fatalf("%s: median %v", name, med)
			}
		}
	}
}
