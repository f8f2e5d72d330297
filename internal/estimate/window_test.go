package estimate

import (
	"math"
	"testing"

	"smokescreen/internal/stats"
)

// freshOver builds a brand-new estimator and feeds it exactly the
// window's surviving observations in frame order — the from-scratch
// recomputation the incremental window must match.
func freshOver(t *testing.T, w *Window, agg Agg, p Params, anyTime bool) *StreamingEstimator {
	t.Helper()
	fresh, err := NewStreamingEstimator(agg, w.span, p, anyTime)
	if err != nil {
		t.Fatal(err)
	}
	fresh.unboundedFrames = true
	frames, values := w.Snapshot()
	for i, frame := range frames {
		fresh.ObserveFrame(frame, values[i])
	}
	return fresh
}

// intOutput is a deterministic integer-valued detector-output stand-in
// (counts per frame), the common case where eviction is bit-exact.
func intOutput(frame int) float64 { return float64((frame*7919 + 3) % 13) }

func TestWindowSlidingMatchesFreshBitExact(t *testing.T) {
	// Property: after any amount of sliding, the window's incremental
	// state equals a fresh estimator over the same surviving frame set
	// — bit-identical for integer-valued observations, where float64
	// addition and subtraction are exact.
	const span = 64
	p := DefaultParams()
	w, err := NewWindow(COUNT, span, p, true)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < 1000; frame++ {
		w.ObserveFrame(frame, intOutput(frame))
		if frame%37 != 0 {
			continue
		}
		fresh := freshOver(t, w, COUNT, p, true)
		if w.est.sum != fresh.sum || w.est.min != fresh.min || w.est.max != fresh.max || w.est.count != fresh.count {
			t.Fatalf("frame %d: window state (sum=%v min=%v max=%v n=%d) != fresh (sum=%v min=%v max=%v n=%d)",
				frame, w.est.sum, w.est.min, w.est.max, w.est.count,
				fresh.sum, fresh.min, fresh.max, fresh.count)
		}
		got, want := w.Current(), fresh.Current()
		if got != want {
			t.Fatalf("frame %d: window estimate %+v != fresh %+v", frame, got, want)
		}
	}
	if w.Lo() != 1000-span {
		t.Fatalf("Lo = %d, want %d", w.Lo(), 1000-span)
	}
	if w.Count() != span {
		t.Fatalf("Count = %d, want %d", w.Count(), span)
	}
}

func TestWindowSlidingMatchesFreshFractional(t *testing.T) {
	// Fractional observations: eviction subtracts what was added, so the
	// running sum can drift from the fresh sum only in the last bits of
	// float cancellation. 1e-9 is orders of magnitude above that drift
	// and orders below any detector-output scale.
	const span = 48
	p := DefaultParams()
	w, err := NewWindow(AVG, span, p, false)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < 600; frame++ {
		x := math.Sin(float64(frame)*0.7)*2.5 + 3
		w.ObserveFrame(frame, x)
		if frame%31 != 0 {
			continue
		}
		got, want := w.Current(), freshOver(t, w, AVG, p, false).Current()
		if math.Abs(got.Value-want.Value) > 1e-9 || math.Abs(got.ErrBound-want.ErrBound) > 1e-9 ||
			got.Sample != want.Sample || got.N != want.N {
			t.Fatalf("frame %d: window estimate %+v != fresh %+v", frame, got, want)
		}
	}
}

func TestWindowSparseSampleMatchesFresh(t *testing.T) {
	// Degraded streams deliver only a sampled subset of each window's
	// frames; the bound must reflect k-of-W and eviction must work over
	// gaps. Observe a pseudo-random ~40% of positions.
	const span = 100
	p := DefaultParams()
	w, err := NewWindow(AVG, span, p, true)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.NewStream(241)
	kept := map[int]bool{}
	for _, i := range s.SampleWithoutReplacement(800, 320) {
		kept[i] = true
	}
	for frame := 0; frame < 800; frame++ {
		if kept[frame] {
			w.ObserveFrame(frame, intOutput(frame))
		} else {
			// Unobserved positions still advance the window bound: the
			// stream moved on even if the plan skipped the frame.
			w.Advance(maxInt(0, frame-span+1))
		}
		if frame%53 != 0 {
			continue
		}
		got, want := w.Current(), freshOver(t, w, AVG, p, true).Current()
		if got != want {
			t.Fatalf("frame %d: sparse window estimate %+v != fresh %+v", frame, got, want)
		}
		if got.N != span {
			t.Fatalf("frame %d: N = %d, want span %d", frame, got.N, span)
		}
		if got.Sample != w.Count() || got.Sample > span {
			t.Fatalf("frame %d: Sample = %d, Count = %d", frame, got.Sample, w.Count())
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestWindowTumblingResetIsEmptyState(t *testing.T) {
	// Advancing past every held frame (the tumbling reset) must return
	// the estimator to exactly its empty state: the next window's
	// estimates are bit-identical to a brand-new window's.
	const span = 32
	p := DefaultParams()
	w, err := NewWindow(AVG, span, p, false)
	if err != nil {
		t.Fatal(err)
	}
	for frame := 0; frame < span; frame++ {
		w.ObserveFrame(frame, math.Sqrt(float64(frame)+2))
	}
	if evicted := w.Advance(span); evicted != span {
		t.Fatalf("tumbling advance evicted %d, want %d", evicted, span)
	}
	if w.Count() != 0 {
		t.Fatalf("Count = %d after tumble", w.Count())
	}
	if got := w.Current(); got.ErrBound != 1 || got.Sample != 0 {
		t.Fatalf("post-tumble estimate %+v not empty", got)
	}
	if w.est.sum != 0 || w.est.min != 0 || w.est.max != 0 {
		t.Fatalf("post-tumble state not reset: sum=%v min=%v max=%v", w.est.sum, w.est.min, w.est.max)
	}

	clean, err := NewWindow(AVG, span, p, false)
	if err != nil {
		t.Fatal(err)
	}
	clean.Advance(span)
	for frame := span; frame < 2*span; frame++ {
		x := math.Sqrt(float64(frame) + 2)
		w.ObserveFrame(frame, x)
		clean.ObserveFrame(frame, x)
		if got, want := w.Current(), clean.Current(); got != want {
			t.Fatalf("frame %d: tumbled window %+v != clean window %+v", frame, got, want)
		}
	}
}

func TestWindowStaleAndDuplicateRejection(t *testing.T) {
	const span = 16
	p := DefaultParams()
	w, err := NewWindow(COUNT, span, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if !w.ObserveFrame(40, 2) {
		t.Fatal("fresh frame rejected")
	}
	if w.Lo() != 40-span+1 {
		t.Fatalf("Lo = %d after frame 40", w.Lo())
	}
	if w.ObserveFrame(40, 2) {
		t.Fatal("duplicate frame accepted")
	}
	if w.ObserveFrame(10, 1) {
		t.Fatal("stale frame accepted")
	}
	if w.Count() != 1 {
		t.Fatalf("Count = %d", w.Count())
	}
	// A late-but-in-window frame is accepted out of order.
	if !w.ObserveFrame(30, 1) {
		t.Fatal("in-window late frame rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Advance did not panic")
		}
	}()
	w.Advance(w.Lo() - 1)
}

func TestForgetFrameValidation(t *testing.T) {
	p := DefaultParams()
	e, _ := NewStreamingEstimator(AVG, 100, p, false)
	e.ObserveFrame(3, 1.5)
	e.ObserveFrame(7, 4.5)
	e.ObserveFrame(9, 0.5)
	if e.ForgetFrame(50) {
		t.Fatal("forgot a never-observed frame")
	}
	// Evicting the max must rescan the surviving range.
	if !e.ForgetFrame(7) {
		t.Fatal("observed frame not forgotten")
	}
	if e.min != 0.5 || e.max != 1.5 || e.count != 2 {
		t.Fatalf("post-forget state min=%v max=%v count=%d", e.min, e.max, e.count)
	}
	e.ForgetFrame(3)
	e.ForgetFrame(9)
	if e.count != 0 || e.sum != 0 || e.min != 0 || e.max != 0 {
		t.Fatalf("forget-to-empty state count=%d sum=%v min=%v max=%v", e.count, e.sum, e.min, e.max)
	}
	if got := e.Current(); got.ErrBound != 1 || got.Sample != 0 {
		t.Fatalf("empty estimate %+v", got)
	}

	untracked, _ := NewStreamingEstimator(AVG, 100, p, false)
	untracked.Observe(1)
	defer func() {
		if recover() == nil {
			t.Fatal("untracked ForgetFrame did not panic")
		}
	}()
	untracked.ForgetFrame(0)
}
