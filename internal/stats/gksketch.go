package stats

import (
	"fmt"
	"math"
)

// GKSketch is a Greenwald–Khanna epsilon-approximate quantile summary
// (SIGMOD 2001) — the summary-based approach to holistic aggregation the
// paper's related work contrasts with its sampling-based estimators
// ("these estimation algorithms mainly rely on summary statistics",
// Section 6). A sketch answers any quantile query within epsilon*N rank
// error while storing O((1/epsilon) log(epsilon N)) tuples, but it must
// OBSERVE EVERY value — which is exactly what intentional degradation
// forbids. The sketch exists here as the full-access comparator: the
// ablation experiments use it to show what rank accuracy would cost in
// frame access.
type GKSketch struct {
	epsilon float64
	n       int
	tuples  []gkTuple
}

// gkTuple is one summary entry: value v seen with rank uncertainty
// [rmin, rmin+g+delta], where rmin is the sum of g over the prefix.
type gkTuple struct {
	v     float64
	g     int
	delta int
}

// NewGKSketch creates a sketch with the given rank-error fraction.
func NewGKSketch(epsilon float64) (*GKSketch, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("stats: GK epsilon %v out of (0,1)", epsilon)
	}
	return &GKSketch{epsilon: epsilon}, nil
}

// Insert observes one value.
func (s *GKSketch) Insert(v float64) {
	// Find insertion position: first tuple with value >= v.
	pos := len(s.tuples)
	for i := range s.tuples {
		if s.tuples[i].v >= v {
			pos = i
			break
		}
	}
	delta := 0
	if pos != 0 && pos != len(s.tuples) {
		delta = int(2*s.epsilon*float64(s.n)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	tuple := gkTuple{v: v, g: 1, delta: delta}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[pos+1:], s.tuples[pos:])
	s.tuples[pos] = tuple
	s.n++

	// Periodic compression keeps the summary at its space bound.
	if s.n%int(math.Max(1, 1/(2*s.epsilon))) == 0 {
		s.compress()
	}
}

// compress merges tuples whose combined uncertainty stays within the
// 2*epsilon*n budget.
func (s *GKSketch) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int(2 * s.epsilon * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples)-1; i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		// Merge the previous tuple into this one when allowed; the first
		// tuple is never merged away (it anchors the minimum).
		if len(out) > 1 && last.g+t.g+t.delta < budget {
			t.g += last.g
			out = out[:len(out)-1]
		}
		out = append(out, t)
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Quantile returns a value whose rank is within epsilon*N of the q-th
// quantile's rank. It panics on an empty sketch.
func (s *GKSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		panic("stats: Quantile of empty GK sketch")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(s.n)))
	bound := int(s.epsilon * float64(s.n))
	rmin := 0
	for i := range s.tuples {
		rmin += s.tuples[i].g
		rmax := rmin + s.tuples[i].delta
		if target-rmin <= bound && rmax-target <= bound {
			return s.tuples[i].v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// MergeSorted folds all values of another slice into the sketch (a
// convenience for batch loading).
func (s *GKSketch) InsertAll(values []float64) {
	for _, v := range values {
		s.Insert(v)
	}
}
