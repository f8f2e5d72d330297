package stats

import (
	"math"
	"sort"
)

// Summary holds the sample moments the estimators consume. Range-based
// inequalities (Hoeffding, Hoeffding–Serfling) use Range; variance-based
// ones (CLT, empirical Bernstein) use Var.
type Summary struct {
	N    int     // number of observations
	Mean float64 // sample mean
	Var  float64 // unbiased sample variance (0 when N < 2)
	Min  float64 // smallest observation (0 when N == 0)
	Max  float64 // largest observation (0 when N == 0)
}

// Range returns Max - Min, the observed sample range.
func (s Summary) Range() float64 { return s.Max - s.Min }

// Summarize computes the sample moments of xs in a single pass using
// Welford's algorithm, which is numerically stable for long, nearly
// constant series such as per-frame car counts.
func Summarize(xs []float64) Summary {
	var sum Summary
	var m2 float64
	for i, x := range xs {
		if i == 0 {
			sum.Min, sum.Max = x, x
		} else {
			if x < sum.Min {
				sum.Min = x
			}
			if x > sum.Max {
				sum.Max = x
			}
		}
		sum.N++
		delta := x - sum.Mean
		sum.Mean += delta / float64(sum.N)
		m2 += delta * (x - sum.Mean)
	}
	if sum.N > 1 {
		sum.Var = m2 / float64(sum.N-1)
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the empirical q-quantile of xs using the same
// definition as the paper's Algorithm 2: the smallest value whose
// cumulative frequency reaches q. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for an already ascending-sorted slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: QuantileSorted of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	// Smallest index i with (i+1)/n >= q, i.e. cumulative frequency >= q.
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RankSorted returns the rank (1-based) of value v in the ascending-sorted
// population sorted: the number of observations <= v, in O(log n). This is
// the rank notion used by the MAX/MIN error metric
// |rank(Yapprox)-rank(Ytrue)| / rank(Ytrue).
func RankSorted(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

// RelativeError returns |approx-truth| / |truth|. When truth is zero it
// returns 0 if approx is also zero and +Inf otherwise, matching how the
// paper treats degenerate true answers.
func RelativeError(approx, truth float64) float64 {
	if truth == 0 {
		if approx == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(approx-truth) / math.Abs(truth)
}

// DistinctFrequencies computes the sorted distinct values of xs and the
// frequency of each (count / len(xs)). It is the (s_i, F_i) decomposition
// from Section 3.2.4 of the paper.
func DistinctFrequencies(xs []float64) (values []float64, freqs []float64) {
	if len(xs) == 0 {
		return nil, nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		values = append(values, sorted[i])
		freqs = append(freqs, float64(j-i)/n)
		i = j
	}
	return values, freqs
}
