package estimate

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"smokescreen/internal/stats"
)

// This file implements Algorithm 3: profile repair. When non-random
// interventions (reduced resolution, image removal) bias the sampled
// outputs, the basic bounds can undershoot the true error. A correction
// set — m outputs from frames degraded ONLY by random interventions —
// anchors the bound: the degraded answer is compared against the
// correction set's answer, whose own error bound is valid by Theorem
// 3.1/3.2, and the triangle inequality yields a corrected bound that holds
// with probability at least 1-delta with NO distributional assumption on
// the non-randomly degraded outputs.

// ErrDegenerateCorrection reports a correction set whose own answer Y_v is
// zero while the degraded answer is not: Algorithm 3 divides by |Y_v|, so
// no finite repaired bound exists. Repair itself returns +Inf for such a
// point — an in-memory hypercube may carry unbounded cells, which no
// tradeoff ever selects — but an artifact cannot: profile.SaveProfile
// refuses to seal one and returns this error, which the profile service
// answers with 422 {"code":"degenerate_correction"} instead of storing
// anything.
var ErrDegenerateCorrection = errors.New("estimate: the correction set's answer is zero, so the degraded answer's relative error cannot be bounded")

// Correction is a correction set prepared for bound repair: the sampled
// outputs (random interventions only) plus their Smokescreen estimate.
// Build one with NewCorrection; it is immutable afterwards, so the parallel
// estimate stage may repair many points against one Correction at once.
type Correction struct {
	Sample   []float64 // v_1..v_m, outputs on the correction frames
	Estimate Estimate  // Smokescreen estimate computed from the sample
	sorted   []float64 // Sample in ascending order, for rank queries
}

// NewCorrection builds a correction set for the aggregate from m outputs
// sampled without replacement out of the N-frame corpus.
func NewCorrection(agg Agg, sample []float64, N int, p Params) (*Correction, error) {
	est, err := Smokescreen(agg, sample, N, p)
	if err != nil {
		return nil, fmt.Errorf("estimate: building correction set: %w", err)
	}
	// Sorted here, once, not on the first rank query: m <= 0.2*N floats is
	// cheap, and a lazy unlocked sort let two concurrent MAX/MIN repairs
	// rank against a half-sorted copy.
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	return &Correction{Sample: sample, Estimate: est, sorted: sorted}, nil
}

// rank returns the sampled cumulative frequency of value v in the
// correction set: rank(v)/m.
func (c *Correction) rank(v float64) float64 {
	return float64(stats.RankSorted(c.sorted, v)) / float64(len(c.sorted))
}

// Repair corrects the error bound of a degraded estimate using the
// correction set (Algorithm 3). For AVG/SUM/COUNT:
//
//	err_b = (1+err_v) * |Y - Y_v| / |Y_v| + err_v,
//
// and for MAX/MIN the value difference is replaced by the rank difference
// of the two answers within the correction set, divided by r. The repaired
// bound holds with probability at least 1-delta because it inherits the
// correction estimate's guarantee.
func (c *Correction) Repair(agg Agg, degraded Estimate, p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	errV := c.Estimate.ErrBound
	if agg.IsExtremum() {
		r := p.rFor(agg)
		rankY := c.rank(degraded.Value)
		rankV := c.rank(c.Estimate.Value)
		return math.Abs(rankY-rankV)/r + errV, nil
	}
	yV := c.Estimate.Value
	if yV == 0 {
		// The correction answer carries no scale information; the relative
		// error of the degraded answer cannot be bounded (see
		// ErrDegenerateCorrection for what sealing paths do with this).
		if degraded.Value == 0 {
			return errV, nil
		}
		return math.Inf(1), nil
	}
	// SUM/COUNT values are scaled by N on both sides, so the ratio form is
	// identical for all mean-type aggregates.
	return (1+errV)*math.Abs(degraded.Value-yV)/math.Abs(yV) + errV, nil
}

// Repaired combines a degraded estimate with the correction set: the error
// bound is repaired, and for random-only interventions callers may instead
// take the tighter of the two bounds (paper Section 5.2.2, "when there is
// only the random intervention, the tighter of the error bounds with and
// without the correction set is used").
func (c *Correction) Repaired(agg Agg, degraded Estimate, p Params, randomOnly bool) (Estimate, error) {
	repaired, err := c.Repair(agg, degraded, p)
	if err != nil {
		return Estimate{}, err
	}
	out := degraded
	if randomOnly && degraded.ErrBound < repaired {
		out.ErrBound = degraded.ErrBound
		return out, nil
	}
	out.ErrBound = repaired
	return out, nil
}
