package stats

import "math"

// This file implements the concentration inequalities that back every
// error-bound estimator in Smokescreen and its baselines (paper Section 3.2
// and Section 5.1 "Baselines").
//
// All half-width functions return the two-sided deviation I such that
// |mean(sample) - mean(population)| <= I with probability at least 1-delta
// under the inequality's assumptions.

// NormalQuantile returns the p-quantile of the standard normal
// distribution, i.e. z such that P(Z <= z) = p.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// ZScore returns the two-sided critical value phi_{delta/2}: the z such
// that P(|Z| > z) = delta for a standard normal Z. This is the phi symbol
// used in the paper's Algorithm 2.
func ZScore(delta float64) float64 {
	return NormalQuantile(1 - delta/2)
}

// SerflingRho returns the rho_n factor from the Hoeffding–Serfling
// inequality for a sample of size n drawn without replacement from a
// population of size N:
//
//	rho_n = min{ 1 - (n-1)/N , (1 - n/N)(1 + 1/n) }.
//
// It panics when n <= 0 or n > N.
func SerflingRho(n, N int) float64 {
	if n <= 0 || n > N {
		panic("stats: SerflingRho with n out of range")
	}
	a := 1 - float64(n-1)/float64(N)
	b := (1 - float64(n)/float64(N)) * (1 + 1/float64(n))
	return math.Min(a, b)
}

// HoeffdingSerflingHalfWidth returns the two-sided 1-delta deviation bound
// for the mean of n observations sampled *without replacement* from a
// population of N values with range R (Bardenet & Maillard, 2015):
//
//	I = R * sqrt( rho_n * log(2/delta) / (2n) ).
//
// This is line 4 of the paper's Algorithm 1.
func HoeffdingSerflingHalfWidth(R float64, n, N int, delta float64) float64 {
	rho := SerflingRho(n, N)
	return R * math.Sqrt(rho*math.Log(2/delta)/(2*float64(n)))
}

// HoeffdingHalfWidth returns the classic two-sided Hoeffding deviation
// bound for n i.i.d. observations with range R:
//
//	I = R * sqrt( log(2/delta) / (2n) ).
func HoeffdingHalfWidth(R float64, n int, delta float64) float64 {
	if n <= 0 {
		panic("stats: HoeffdingHalfWidth with non-positive n")
	}
	return R * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// EmpiricalBernsteinHalfWidth returns the two-sided empirical Bernstein
// deviation bound (Audibert, Munos & Szepesvári, 2007) for n i.i.d.
// observations with sample standard deviation sd and range R:
//
//	I = sd * sqrt( 2 log(3/delta) / n ) + 3 R log(3/delta) / n.
//
// It adapts to low-variance data but carries a heavier additive tail term
// than Hoeffding–Serfling, which is why the paper replaces it.
func EmpiricalBernsteinHalfWidth(sd, R float64, n int, delta float64) float64 {
	if n <= 0 {
		panic("stats: EmpiricalBernsteinHalfWidth with non-positive n")
	}
	l := math.Log(3 / delta)
	return sd*math.Sqrt(2*l/float64(n)) + 3*R*l/float64(n)
}

// CLTHalfWidth returns the central-limit-theorem deviation estimate used by
// online aggregation: z_{1-delta/2} * sd / sqrt(n). It is not a guaranteed
// bound — at small n it undercovers, which is exactly the brittleness
// Figure 5 of the paper documents.
func CLTHalfWidth(sd float64, n int, delta float64) float64 {
	if n <= 0 {
		panic("stats: CLTHalfWidth with non-positive n")
	}
	return ZScore(delta) * sd / math.Sqrt(float64(n))
}

// EBGSHalfWidth returns the deviation bound used by the empirical Bernstein
// stopping baseline (Mnih, Szepesvári & Audibert, 2008). EBGS must hold
// simultaneously for every prefix length t, so it spends its risk budget
// over an infinite schedule d_t = c / t^p with p = 1.1 and
// c = delta*(p-1)/p, then applies the empirical Bernstein inequality at
// level d_n. The union-bound schedule is what makes it looser than
// Smokescreen's single-n construction.
func EBGSHalfWidth(sd, R float64, n int, delta float64) float64 {
	if n <= 0 {
		panic("stats: EBGSHalfWidth with non-positive n")
	}
	const p = 1.1
	c := delta * (p - 1) / p
	dn := c / math.Pow(float64(n), p)
	if dn >= 1 {
		dn = 0.999999
	}
	l := math.Log(3 / dn)
	return sd*math.Sqrt(2*l/float64(n)) + 3*R*l/float64(n)
}

// FPCFactor returns sqrt((N-n)/(n*(N-1))), the finite-population scaling
// that appears in the paper's Algorithm 2. It is the standard deviation of
// the sampled cumulative frequency divided by sqrt(F(1-F)).
func FPCFactor(n, N int) float64 {
	if n <= 0 || N <= 1 || n > N {
		return 0
	}
	return math.Sqrt(float64(N-n) / (float64(n) * float64(N-1)))
}

// FrequencyDeviation returns the 1-delta two-sided deviation bound for a
// sampled cumulative frequency with population frequency approximately f,
// using the normal approximation to the hypergeometric distribution
// (Nicholson 1956; Feller vol. 2):
//
//	phi_{delta/2} * sqrt(f*(1-f)) * sqrt((N-n)/(n*(N-1))).
//
// The caller clamps f into [0, 1]; the variance term is maximal at 1/2.
func FrequencyDeviation(f float64, n, N int, delta float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return ZScore(delta) * math.Sqrt(f*(1-f)) * FPCFactor(n, N)
}
