package estimate

import (
	"fmt"
	"sort"
)

// Window maintains a bounded-duration estimate over an unbounded stream:
// the Privid-style query model where an aggregate is answered per window
// of W consecutive frames rather than over the whole (endless) video.
// The population for the bound is the window span — a window that
// observed k of its W frames is a k-of-W sample with the usual
// Hoeffding-Serfling machinery — and sliding is incremental: advancing
// evicts only the departed frames' contributions (ForgetFrame) instead
// of rebuilding the estimator.
//
// Frame keys are absolute stream positions (monotone, unbounded); the
// window covers [Lo, Lo+Span). Observations below Lo are stale and
// rejected; observations at or beyond Lo+Span first advance the window
// so that the new frame is its last element (the sliding-ingest
// behaviour — tumbling windows are driven externally via Advance).
//
// Any-time validity note: with anyTime set, the bounds reported while
// one window fills hold simultaneously for that window's prefix
// sequence; bounds from different windows are each valid at their own
// confidence but are not jointly corrected across windows.
type Window struct {
	est  *StreamingEstimator
	span int
	lo   int
}

// NewWindow builds a windowed estimator with the given span (the
// bounded duration W, in frames). The window initially covers
// [0, span).
func NewWindow(agg Agg, span int, p Params, anyTime bool) (*Window, error) {
	est, err := NewStreamingEstimator(agg, span, p, anyTime)
	if err != nil {
		return nil, err
	}
	est.unboundedFrames = true
	return &Window{est: est, span: span}, nil
}

// Lo returns the lowest frame position the window covers; the window is
// [Lo, Lo+W) for span W.
func (w *Window) Lo() int { return w.lo }

// Count returns the number of distinct frames currently folded in.
func (w *Window) Count() int { return w.est.Count() }

// ObserveFrame folds in the sampled output of the frame at absolute
// stream position frame. Stale frames (below the window) are dropped
// and reported false; duplicates are suppressed like
// StreamingEstimator.ObserveFrame. A frame at or beyond the window's
// upper bound slides the window forward just enough to include it,
// evicting departed frames.
func (w *Window) ObserveFrame(frame int, x float64) bool {
	if frame < 0 {
		panic("estimate: negative stream position")
	}
	if frame < w.lo {
		return false
	}
	if frame >= w.lo+w.span {
		w.Advance(frame - w.span + 1)
	}
	if _, dup := w.est.seen[frame]; dup {
		return false
	}
	w.est.ObserveFrame(frame, x)
	return true
}

// Advance slides the window's lower bound forward to lo, evicting every
// observation that falls below it, and returns the number evicted.
// Moving backwards is a programming error and panics. Advancing by the
// full span (or more) is the tumbling-window reset — every observation
// is evicted and the estimator returns exactly to its empty state.
func (w *Window) Advance(lo int) int {
	if lo < w.lo {
		panic(fmt.Sprintf("estimate: window cannot move backwards (%d -> %d)", w.lo, lo))
	}
	if lo == w.lo {
		return 0
	}
	var departed []int
	for frame := range w.est.seen {
		if frame < lo {
			departed = append(departed, frame)
		}
	}
	// Evict in frame order: floating-point subtraction is not
	// associative, so a deterministic order keeps window state
	// reproducible across runs (and keeps the determinism analyzer's
	// map-iteration rule satisfied).
	sort.Ints(departed)
	for _, frame := range departed {
		w.est.ForgetFrame(frame)
	}
	w.lo = lo
	return len(departed)
}

// Current returns the running bounded-duration estimate for the current
// window: N is the span, Sample the frames observed so far.
func (w *Window) Current() Estimate { return w.est.Current() }

// Snapshot returns the window's surviving observations in frame order —
// the (positions, values) pair a full recomputation would consume. Used
// by equivalence checks (incremental window state vs a fresh estimator
// over the same frames) and drift summaries.
func (w *Window) Snapshot() (frames []int, values []float64) {
	frames = make([]int, 0, len(w.est.seen))
	for frame := range w.est.seen {
		frames = append(frames, frame)
	}
	sort.Ints(frames)
	values = make([]float64, len(frames))
	for i, frame := range frames {
		values[i] = w.est.seen[frame]
	}
	return frames, values
}
