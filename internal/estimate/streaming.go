package estimate

import (
	"fmt"
	"math"

	"smokescreen/internal/stats"
)

// Streaming estimation: the online-aggregation usage pattern (Hellerstein
// et al., the paper's [30]) on top of Smokescreen's bounds. As degraded
// frames arrive from a camera, the estimator maintains a running answer
// and error bound.
//
// Two guarantee modes exist, mirroring the paper's Section 3.2.1
// discussion:
//
//   - Pointwise: the single-n construction of Algorithm 1. Each reported
//     bound holds at 1-delta *for that n* — the right choice when the
//     stopping point is fixed in advance (the paper's setting, where the
//     administrator chose f before streaming).
//   - AnyTime: the EBGS-style risk schedule d_n = delta*(p-1)/p / n^p
//     applied to the Hoeffding-Serfling inequality, so ALL reported bounds
//     hold simultaneously at 1-delta — the right choice when the operator
//     watches the stream and stops adaptively ("stop when the bound is
//     small enough"), where reusing the pointwise bound would be invalid.
//
// Like every sample-range-based bound (including the paper's Algorithm 1),
// validity is conditional on the observed range approximating the
// population range; at very small prefixes (roughly the first ten
// observations) the reported bound can undershoot.
type StreamingEstimator struct {
	agg     Agg
	n       int // population size N
	params  Params
	anyTime bool

	count int
	sum   float64
	min   float64
	max   float64

	// seen records frame-keyed observations (ObserveFrame), enabling
	// duplicate suppression and windowed eviction (ForgetFrame). nil until
	// the first ObserveFrame; plain Observe leaves it nil (untracked
	// observations cannot be deduplicated or forgotten).
	seen map[int]float64

	// unboundedFrames relaxes ObserveFrame's [0, N) index check: set by
	// the Window wrapper, whose population is a window span but whose
	// frame keys are absolute positions of an unbounded stream. The
	// sample-size invariant (count <= n) still holds — Window evicts
	// before it observes.
	unboundedFrames bool
}

// NewStreamingEstimator builds a streaming estimator over a population of
// N frames. Only mean-type aggregates stream (AVG, SUM, COUNT); extremum
// rank bounds need the full sample.
func NewStreamingEstimator(agg Agg, N int, p Params, anyTime bool) (*StreamingEstimator, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if agg.IsExtremum() || agg == VAR {
		return nil, fmt.Errorf("estimate: %v does not support streaming estimation", agg)
	}
	if N <= 0 {
		return nil, fmt.Errorf("estimate: population size %d invalid", N)
	}
	return &StreamingEstimator{agg: agg, n: N, params: p, anyTime: anyTime}, nil
}

// Observe folds in the next sampled output (already predicate-transformed
// for COUNT) and returns the running estimate. Observing more values than
// the population holds is a programming error and panics.
func (e *StreamingEstimator) Observe(x float64) Estimate {
	if e.count >= e.n {
		panic("estimate: observed more values than the population size")
	}
	if e.count == 0 {
		e.min, e.max = x, x
	} else {
		if x < e.min {
			e.min = x
		}
		if x > e.max {
			e.max = x
		}
	}
	e.count++
	e.sum += x
	return e.Current()
}

// Count returns the number of observations folded in so far.
func (e *StreamingEstimator) Count() int { return e.count }

// ObserveFrame folds in the sampled output of one identified frame.
// Unlike Observe it is idempotent per frame: cameras and relays redeliver
// (at-least-once transports, overlapping shard assignments), and a
// duplicate frame must not be double-counted — the running estimate is
// returned unchanged. The estimate itself is order-independent, so
// out-of-order delivery is harmless. Frames outside [0, N) panic, like
// over-observing does.
func (e *StreamingEstimator) ObserveFrame(frame int, x float64) Estimate {
	if frame < 0 || (frame >= e.n && !e.unboundedFrames) {
		panic("estimate: frame index outside the population")
	}
	if e.seen == nil {
		e.seen = make(map[int]float64)
	}
	if _, dup := e.seen[frame]; dup {
		return e.Current()
	}
	e.seen[frame] = x
	return e.Observe(x)
}

// ForgetFrame evicts one frame's observation — the windowed-ingest
// primitive: as a window slides, departed frames' contributions are
// subtracted instead of rebuilding the estimator from scratch. It
// reports whether the frame had been observed. It requires a
// frame-tracked estimator (built exclusively with ObserveFrame); untracked
// Observe calls make eviction unsound and panic.
//
// The running sum is adjusted exactly when observations are
// integer-valued (detector outputs are counts, so the common case is
// bit-exact); the observed min/max are rescanned only when the evicted
// value sat on a boundary. Forgetting the last observation resets the
// estimator to its empty state.
func (e *StreamingEstimator) ForgetFrame(frame int) bool {
	if e.count != len(e.seen) {
		panic("estimate: ForgetFrame requires frame-tracked observations (use ObserveFrame)")
	}
	x, ok := e.seen[frame]
	if !ok {
		return false
	}
	delete(e.seen, frame)
	e.count--
	if e.count == 0 {
		e.sum, e.min, e.max = 0, 0, 0
		return true
	}
	e.sum -= x
	if x == e.min || x == e.max {
		first := true
		for _, y := range e.seen {
			// Range rescan: min/max are order-independent, so map
			// iteration order cannot leak into the estimate.
			if first {
				e.min, e.max = y, y
				first = false
				continue
			}
			if y < e.min {
				e.min = y
			}
			if y > e.max {
				e.max = y
			}
		}
	}
	return true
}

// Current returns the running estimate without observing anything new.
func (e *StreamingEstimator) Current() Estimate {
	est := Estimate{N: e.n, Sample: e.count}
	if e.count == 0 {
		est.ErrBound = 1
		return est
	}
	mean := e.sum / float64(e.count)
	r := math.Max(e.max-e.min, rangeFloor(e.agg))
	if r == 0 && e.count < e.n {
		// Constant prefix with no a-priori range: uninformative (see avg).
		est.Value = mean
		if e.agg == SUM || e.agg == COUNT {
			est.Value *= float64(e.n)
		}
		est.ErrBound = 1
		return est
	}
	delta := e.params.Delta
	if e.anyTime {
		// Risk schedule over all prefix lengths (see EBGSHalfWidth).
		const p = 1.1
		c := e.params.Delta * (p - 1) / p
		delta = c / math.Pow(float64(e.count), p)
		if delta >= 1 {
			delta = 0.999999
		}
	}
	I := stats.HoeffdingSerflingHalfWidth(r, e.count, e.n, delta)
	ub := math.Abs(mean) + I
	lb := math.Max(0, math.Abs(mean)-I)
	switch {
	case ub == 0:
		est.Value, est.ErrBound = 0, 0
	case lb == 0:
		est.Value, est.ErrBound = 0, 1
	default:
		est.Value = sgn(mean) * 2 * ub * lb / (ub + lb)
		est.ErrBound = (ub - lb) / (ub + lb)
	}
	if e.agg == SUM || e.agg == COUNT {
		est.Value *= float64(e.n)
	}
	return est
}
