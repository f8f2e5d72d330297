// Package estimate implements Smokescreen's query-answer and error-bound
// estimators (paper Section 3.2) and the baselines it is evaluated against
// (Section 5.1):
//
//   - Algorithm 1: AVG under random frame sampling — an improved empirical
//     Bernstein stopping construction using the Hoeffding–Serfling
//     inequality and a single-sample-size confidence interval;
//   - SUM and COUNT by reduction to AVG;
//   - Algorithm 2: MAX/MIN via extreme r-th quantiles with a normal
//     approximation to the hypergeometric distribution of sampled
//     cumulative frequencies, under a rank-relative error metric;
//   - Algorithm 3: profile repair — correcting possibly biased bounds with
//     a correction set degraded only by random interventions;
//   - baselines: EBGS, Hoeffding, Hoeffding–Serfling, CLT (for AVG-like
//     aggregates) and Stein (for MAX).
//
// Every bound holds with probability at least 1-delta under its stated
// assumptions; the property tests in this package verify coverage
// empirically, and Figure 5 of the paper (reproduced in
// internal/experiments) shows how the CLT baseline fails that guarantee.
package estimate

import (
	"fmt"
	"math"
	"sort"

	"smokescreen/internal/stats"
)

// Agg identifies an aggregate function over per-frame model outputs.
type Agg int

// Supported aggregate functions (paper Section 3.2). Deduplicated
// aggregates are out of scope, as in the paper.
const (
	AVG Agg = iota
	SUM
	COUNT
	MAX
	MIN
	// VAR is the population-variance aggregate — the paper's first-named
	// future-work extension (Section 7), implemented in variance.go.
	VAR
)

// String returns the SQL-style name of the aggregate.
func (a Agg) String() string {
	switch a {
	case AVG:
		return "AVG"
	case SUM:
		return "SUM"
	case COUNT:
		return "COUNT"
	case MAX:
		return "MAX"
	case MIN:
		return "MIN"
	case VAR:
		return "VAR"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// ParseAgg converts an aggregate name (case-sensitive SQL style).
func ParseAgg(s string) (Agg, error) {
	switch s {
	case "AVG", "avg":
		return AVG, nil
	case "SUM", "sum":
		return SUM, nil
	case "COUNT", "count":
		return COUNT, nil
	case "MAX", "max":
		return MAX, nil
	case "MIN", "min":
		return MIN, nil
	case "VAR", "var":
		return VAR, nil
	}
	return 0, fmt.Errorf("estimate: unknown aggregate %q", s)
}

// IsExtremum reports whether the aggregate is MAX or MIN (rank-error
// metric, Algorithm 2) rather than AVG/SUM/COUNT (value-error metric,
// Algorithm 1).
func (a Agg) IsExtremum() bool { return a == MAX || a == MIN }

// Estimate is an approximate query answer with its error upper bound.
type Estimate struct {
	Value    float64 // Y_approx
	ErrBound float64 // err_b: upper bound on the relative error, >= 0
	N        int     // population size the estimate refers to
	Sample   int     // sample size n used
}

// Params carries the estimator knobs shared across aggregates.
type Params struct {
	// Delta is the risk: bounds hold with probability >= 1-Delta.
	// The paper's experiments use 0.05 (95% confidence).
	Delta float64
	// R is the extreme quantile used to approximate MAX (close to 1) and
	// MIN (close to 0). The paper uses 0.99 for MAX.
	R float64
}

// DefaultParams returns the paper's experimental defaults: delta = 0.05,
// r = 0.99.
func DefaultParams() Params { return Params{Delta: 0.05, R: 0.99} }

func (p Params) validate() error {
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("estimate: delta %v out of (0,1)", p.Delta)
	}
	if p.R <= 0 || p.R >= 1 {
		return fmt.Errorf("estimate: quantile r %v out of (0,1)", p.R)
	}
	return nil
}

// rFor returns the quantile used for the aggregate: R for MAX, 1-R for
// MIN (so R=0.99 means the 0.01 quantile approximates the minimum).
func (p Params) rFor(a Agg) float64 {
	if a == MIN {
		return 1 - p.R
	}
	return p.R
}

// Smokescreen computes the paper's estimate for the given aggregate from a
// random (without replacement) sample of n of the N per-frame outputs.
// COUNT expects the predicate indicators (0/1) as the sample values.
func Smokescreen(agg Agg, sample []float64, N int, p Params) (Estimate, error) {
	if err := p.validate(); err != nil {
		return Estimate{}, err
	}
	if len(sample) == 0 {
		return Estimate{}, fmt.Errorf("estimate: empty sample")
	}
	if len(sample) > N {
		return Estimate{}, fmt.Errorf("estimate: sample of %d exceeds population %d", len(sample), N)
	}
	switch agg {
	case AVG:
		return avg(sample, N, p.Delta, 0), nil
	case SUM, COUNT:
		// COUNT works on predicate indicators whose range is known a
		// priori to be 1, so the bound survives constant samples (all
		// frames matching) where the observed range collapses to zero.
		e := avg(sample, N, p.Delta, rangeFloor(agg))
		e.Value *= float64(N)
		return e, nil
	case MAX, MIN:
		return quantile(agg, sample, N, p.rFor(agg), p.Delta), nil
	case VAR:
		return varEstimate(sample, N, p.Delta), nil
	default:
		return Estimate{}, fmt.Errorf("estimate: unsupported aggregate %v", agg)
	}
}

// rangeFloor returns the a-priori known output range for an aggregate:
// COUNT indicators live in [0,1]; other aggregates have no known range
// and rely on the observed sample range.
func rangeFloor(agg Agg) float64 {
	if agg == COUNT {
		return 1
	}
	return 0
}

// avg is Algorithm 1. It builds the Hoeffding–Serfling confidence interval
// for the population mean at the single observed sample size (the paper's
// relaxation of the EBGS any-time construction), then derives the
// harmonic-mean style answer whose relative error is (UB-LB)/(UB+LB).
// floor is an a-priori lower bound on the output range (see rangeFloor).
func avg(sample []float64, N int, delta, floor float64) Estimate {
	n := len(sample)
	s := stats.Summarize(sample)
	r := math.Max(s.Range(), floor)
	if r == 0 && n < N {
		// A constant partial sample with no a-priori range carries no
		// information about the deviation; the relative error cannot be
		// bounded (a full sample, by contrast, is exact).
		return Estimate{Value: s.Mean, ErrBound: 1, N: N, Sample: n}
	}
	I := stats.HoeffdingSerflingHalfWidth(r, n, N, delta)
	ub := math.Abs(s.Mean) + I
	lb := math.Max(0, math.Abs(s.Mean)-I)
	est := Estimate{N: N, Sample: n}
	if ub == 0 {
		// All-zero sample with zero range: the interval collapses to 0.
		est.Value = 0
		est.ErrBound = 0
		return est
	}
	if lb == 0 {
		est.Value = 0
		est.ErrBound = 1
		return est
	}
	est.Value = sgn(s.Mean) * 2 * ub * lb / (ub + lb)
	est.ErrBound = (ub - lb) / (ub + lb)
	return est
}

// quantile is Algorithm 2: the r-th quantile of the sample approximates
// the extremum, with a hypergeometric normal-approximation bound on the
// rank-relative error.
func quantile(agg Agg, sample []float64, N int, r, delta float64) Estimate {
	n := len(sample)
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	value := stats.QuantileSorted(sorted, r)

	// F^_k^: the sampled frequency of the approximate quantile value.
	count := 0
	for _, x := range sorted {
		if x == value {
			count++
		}
	}
	fHat := float64(count) / float64(n)

	var dev float64
	if agg == MAX {
		dev = stats.FrequencyDeviation(r, n, N, delta)
	} else {
		dev = stats.FrequencyDeviation(r+fHat, n, N, delta)
	}
	// err_b = ((dev + F^)/F^ + 1) * F^/r, simplified to (dev + 2F^)/r.
	errB := (dev + 2*fHat) / r
	return Estimate{Value: value, ErrBound: errB, N: N, Sample: n}
}

func sgn(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// TrueAnswer computes the exact aggregate over the full population of
// per-frame outputs. COUNT expects indicator values.
func TrueAnswer(agg Agg, population []float64, p Params) (float64, error) {
	if len(population) == 0 {
		return 0, fmt.Errorf("estimate: empty population")
	}
	switch agg {
	case AVG:
		return stats.Mean(population), nil
	case SUM, COUNT:
		return stats.Mean(population) * float64(len(population)), nil
	case MAX, MIN:
		// The paper approximates MAX by the 0.99 quantile even for the true
		// answer ("our system estimates 0.99 quantile as an approximation
		// of the maximum value"), so the reference uses the same r.
		return stats.Quantile(population, p.rFor(agg)), nil
	case VAR:
		return trueVariance(population), nil
	default:
		return 0, fmt.Errorf("estimate: unsupported aggregate %v", agg)
	}
}

// Audited is an estimate checked against native truth.
type Audited struct {
	Truth float64 // exact aggregate over the population
	// TrueError is the paper's accuracy metric: relative value error for
	// AVG/SUM/COUNT, and relative *rank* error for MAX/MIN
	// (|rank(Yapprox) - rank(Ytrue)| / rank(Ytrue), with ranks taken in the
	// full population).
	TrueError float64
	// Held reports that the estimate's bound is not below its true error,
	// to within one ulp of the truth per population member: the rounding by
	// which two summation orders of that many terms can differ, so that a
	// full-sample estimate (bound exactly 0, the truth summed in another
	// order) holds. It is a count of ulps, not a percentage — an error of
	// 1e-9 under a bound of 0 is a violation.
	Held bool
}

// Audit compares an estimate with the exact aggregate over the full
// population of per-frame outputs. It is the one place a bound is checked
// against truth: experiments, examples and `query -truth` call it (through
// the Spec, System and Fleet methods that supply the population), so all
// of them report the paper's metric — rank error for MAX/MIN, not value
// error. Only an administrator who holds the non-degraded corpus can run it.
func Audit(agg Agg, e Estimate, population []float64, p Params) (Audited, error) {
	truth, err := TrueAnswer(agg, population, p)
	if err != nil {
		return Audited{}, err
	}
	a := Audited{Truth: truth}
	if agg.IsExtremum() {
		sorted := append([]float64(nil), population...)
		sort.Float64s(sorted)
		rApprox := stats.RankSorted(sorted, e.Value)
		rTrue := stats.RankSorted(sorted, truth)
		switch {
		case rTrue != 0:
			a.TrueError = math.Abs(float64(rApprox-rTrue)) / float64(rTrue)
		case rApprox != 0:
			a.TrueError = math.Inf(1)
		}
	} else {
		a.TrueError = stats.RelativeError(e.Value, truth)
	}
	a.Held = !(e.ErrBound+float64(len(population))*0x1p-52 < a.TrueError)
	return a, nil
}
