// Package stream turns the plan/execute pipeline from batch into a
// long-running service: the paper's system model has cameras
// *continuously* pushing degraded frames to the central video query
// processor, and this package is the central side of that arrangement.
//
// A Receiver consumes camera sessions over the transport framing
// (MsgConfig → MsgBackground → MsgFrame… → MsgEnd, repeated — a camera
// that loops its corpus models unbounded video) and maintains windowed
// profiles in the Privid style: aggregates are answered per window of W
// consecutive stream positions rather than over the endless whole, each
// carrying the any-time Hoeffding-Serfling bound of
// estimate.StreamingEstimator. Window refresh is incremental — on
// advance, departed frames' contributions are evicted
// (estimate.Window.Advance) and arriving frames folded in, each read once
// on arrival from its internal/outputs column. A drift detector compares
// each completed window's detector-output distribution against a profiled
// corpus baseline (stats.DistinctFrequencies over internal/outputs columns)
// and emits a typed DriftEvent when the divergence crosses a threshold —
// the live-vs-profile diagnosis question posed by causal physical error
// discovery.
//
// The wire protocol's state machine is camera.ReceiveSession; Run loops over
// sessions with it, mapping each onto one growing timeline.
//
// Cancellation contract: Run checks its context at every session and every
// frame and never emits a partial window — cancelling tears down in-flight
// detection work and discards the window being filled. Callers
// cancelling a Run that is blocked in a transport read must also close
// the underlying connection (the server does; see the package tests).
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"smokescreen/internal/camera"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/transport"
)

// DefaultDriftThreshold is the total-variation distance above which a
// window is flagged when the config leaves the threshold zero.
const DefaultDriftThreshold = 0.25

// Config describes one ingest stream.
type Config struct {
	// Model is the detector run centrally over the stream.
	Model *detect.Model
	// Class is the object class the windowed aggregate counts.
	Class scene.Class
	// Agg is the per-window aggregate (AVG, SUM or COUNT over per-frame
	// class counts). Zero value is AVG.
	Agg estimate.Agg
	// Params are the estimator knobs; zero value means
	// estimate.DefaultParams.
	Params estimate.Params

	// WindowSpan is W: the bounded duration, in stream positions, each
	// windowed answer covers. Required.
	WindowSpan int
	// WindowStride is the distance between consecutive window starts.
	// Zero defaults to WindowSpan (tumbling windows); smaller values
	// produce overlapping sliding windows.
	WindowStride int

	// Sources are the corpora the camera sessions replay, in session
	// order (the last entry repeats for later sessions). Required. The
	// receiver answers by replay: a received frame's count is read from the
	// column store (outputs.At) for the session's source — the setting's
	// view of the corpus (degrade.EffectiveVideo) — at the transmitted
	// resolution, so a window's detections are the ones estimate.Audit, the
	// drift baseline and every profile measure against, and a frame whose
	// row the baseline or an earlier stream holds costs no detection. The
	// received rasters are decoded and validated but not detected on.
	Sources []*scene.Video

	// Baseline, when set, enables drift detection against it.
	Baseline *Baseline
	// DriftThreshold is the total-variation distance that raises a
	// DriftEvent; zero means DefaultDriftThreshold.
	DriftThreshold float64

	// Verify cross-checks each completed window's incremental state
	// against a from-scratch recomputation (Model.DetectFrame per frame,
	// not the column store, into a fresh estimator) and fails the run
	// unless the two are bitwise equal.
	Verify bool

	// OnWindow, when set, observes every completed window (called from
	// the Run goroutine).
	OnWindow func(WindowResult)
	// OnDrift, when set, observes every drift event (called from the Run
	// goroutine, after the window's OnWindow).
	OnDrift func(DriftEvent)
}

// WindowResult is one completed window's profile.
type WindowResult struct {
	Seq    int // window sequence number, from 0
	Lo, Hi int // stream positions covered: [Lo, Hi)
	// Estimate is the windowed aggregate with its error bound: N is the
	// window span, Sample the frames the degraded stream delivered.
	Estimate estimate.Estimate
	// Frames is the number of observed frames folded into the window.
	Frames int
	// Divergence is the drift distance against the baseline (zero when
	// drift detection is off).
	Divergence float64
	// Drifted reports whether this window raised a DriftEvent.
	Drifted bool
}

// Status is a point-in-time snapshot of a running stream.
type Status struct {
	Sessions   int  // camera sessions consumed (MsgConfig seen)
	Frames     int  // frames folded into windows
	Late       int  // frames dropped as stale (behind the window)
	Position   int  // highest stream position observed + 1
	Windows    int  // completed windows emitted
	NextWindow int  // sequence number of the window currently filling
	WindowLag  int  // positions accumulated past the last completed window
	Drifts     int  // drift events raised
	Done       bool // Run returned
	// Live is the bound over the partially filled current window; it is
	// advisory (the window has not completed) and never persisted.
	Live estimate.Estimate
	// LastWindow and LastDrift are the most recent completed window and
	// drift event; nil before the first.
	LastWindow *WindowResult
	LastDrift  *DriftEvent
}

// Process-wide counters, exported for daemon /metrics like
// transport.Totals.
var (
	totalFrames  atomic.Int64
	totalLate    atomic.Int64
	totalWindows atomic.Int64
	totalDrifts  atomic.Int64
)

// Counters is a snapshot of process-wide streaming totals.
type Counters struct {
	Frames  int64
	Late    int64
	Windows int64
	Drifts  int64
}

// Totals returns cumulative streaming counters summed over every
// Receiver in the process.
func Totals() Counters {
	return Counters{
		Frames:  totalFrames.Load(),
		Late:    totalLate.Load(),
		Windows: totalWindows.Load(),
		Drifts:  totalDrifts.Load(),
	}
}

// Receiver ingests one camera connection. Run is single-goroutine;
// Status may be called concurrently from any goroutine.
type Receiver struct {
	cfg    Config
	thresh float64

	mu sync.Mutex
	st Status
}

// New validates the config and builds a receiver.
func New(cfg Config) (*Receiver, error) {
	if cfg.Model == nil {
		return nil, errors.New("stream: config needs a model")
	}
	if cfg.WindowSpan <= 0 {
		return nil, fmt.Errorf("stream: window span %d invalid", cfg.WindowSpan)
	}
	if cfg.WindowStride < 0 || cfg.WindowStride > cfg.WindowSpan {
		return nil, fmt.Errorf("stream: window stride %d outside (0, span %d]", cfg.WindowStride, cfg.WindowSpan)
	}
	if cfg.WindowStride == 0 {
		cfg.WindowStride = cfg.WindowSpan
	}
	if cfg.Params == (estimate.Params{}) {
		cfg.Params = estimate.DefaultParams()
	}
	if len(cfg.Sources) == 0 {
		return nil, errors.New("stream: config needs at least one source video")
	}
	thresh := cfg.DriftThreshold
	if thresh == 0 {
		thresh = DefaultDriftThreshold
	}
	if thresh < 0 || thresh > 1 || math.IsNaN(thresh) {
		return nil, fmt.Errorf("stream: drift threshold %v outside [0, 1]", cfg.DriftThreshold)
	}
	return &Receiver{cfg: cfg, thresh: thresh}, nil
}

// SetBaseline installs (or replaces) the drift baseline. It must be
// called before Run starts — the server computes the corpus baseline
// after New, under the stream job's cancellable context, and installs
// it here; Run's goroutine reads the config unlocked.
func (r *Receiver) SetBaseline(b *Baseline) {
	r.cfg.Baseline = b
}

// Status returns a snapshot of the stream's progress.
func (r *Receiver) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// heldFrame remembers where a window position came from, so completed
// windows can be recomputed from scratch (Verify).
type heldFrame struct {
	video *scene.Video
	idx   int
}

// ingest is Run's single-goroutine working state.
type ingest struct {
	r   *Receiver
	cfg *Config

	w        *estimate.Window
	seq      int          // next window to complete
	base     int          // stream position of the current session's frame 0
	source   *scene.Video // replay source for the current session
	res      int          // transmitted resolution
	held     map[int]heldFrame
	prunedLo int
}

// Run consumes camera sessions from conn until a clean end-of-stream
// (EOF between sessions), an error, or cancellation. It returns nil on
// clean end; ctx.Err() when cancelled. Cancellation and errors never
// emit the partially filled window.
func (r *Receiver) Run(ctx context.Context, conn *transport.Conn) error {
	// Windows carry the any-time bound: streams are watched and stopped
	// adaptively, so every reported bound must hold simultaneously.
	w, err := estimate.NewWindow(r.cfg.Agg, r.cfg.WindowSpan, r.cfg.Params, true)
	if err != nil {
		return err
	}
	ing := &ingest{r: r, cfg: &r.cfg, w: w, held: map[int]heldFrame{}}
	defer func() {
		r.mu.Lock()
		r.st.Done = true
		r.mu.Unlock()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		session, err := camera.ReceiveSession(conn, ing.startSession, func(s *camera.Session, fr camera.ReceivedFrame) error {
			return ing.frame(ctx, s, fr)
		})
		if err != nil {
			// A teardown that closed the connection under us is a
			// cancellation, not a wire error.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if err == io.EOF {
				// Clean end between sessions: the stream's total length is
				// known, so every window that fits completes; a trailing
				// partial window is discarded, never persisted.
				return ing.completeThrough(ing.base)
			}
			return err
		}
		ing.base += session.Config.TotalFrames
	}
}

// startSession begins a camera session: position fr.Index maps to stream
// position base+fr.Index, so looped sessions extend the timeline instead
// of rewinding it.
func (ing *ingest) startSession(session *camera.Session) error {
	cfg := session.Config
	sources := ing.cfg.Sources
	src := sources[minInt(ing.seqSessions(), len(sources)-1)]
	if src.NumFrames() != cfg.TotalFrames {
		return fmt.Errorf("stream: session %q announces %d frames but replay source holds %d",
			cfg.Name, cfg.TotalFrames, src.NumFrames())
	}
	if !ing.cfg.Model.ValidResolution(cfg.Resolution) {
		return fmt.Errorf("stream: session resolution %d invalid for %s", cfg.Resolution, ing.cfg.Model.Name)
	}
	ing.source, ing.res = src, cfg.Resolution
	ing.r.mu.Lock()
	ing.r.st.Sessions++
	ing.r.mu.Unlock()
	return nil
}

// seqSessions returns how many sessions have already started.
func (ing *ingest) seqSessions() int {
	ing.r.mu.Lock()
	defer ing.r.mu.Unlock()
	return ing.r.st.Sessions
}

// frame folds one received frame into the current window, completing
// any windows its arrival proves full (frames arrive in position order:
// the camera transmits its sampled plan sorted).
func (ing *ingest) frame(ctx context.Context, session *camera.Session, fr camera.ReceivedFrame) error {
	if err := ctx.Err(); err != nil {
		// Cancelled: the arrival must not complete (and emit) a window.
		return err
	}
	if fr.Index < 0 || fr.Index >= session.Config.TotalFrames {
		return fmt.Errorf("stream: frame index %d outside session of %d frames", fr.Index, session.Config.TotalFrames)
	}
	pos := ing.base + fr.Index
	// Arriving at pos means every position below it has been delivered
	// (or skipped by the plan): windows ending at or before pos are
	// complete.
	if err := ing.completeThrough(pos); err != nil {
		return err
	}
	if pos < ing.w.Lo() {
		totalLate.Add(1)
		ing.r.mu.Lock()
		ing.r.st.Late++
		ing.r.mu.Unlock()
		return nil
	}
	// A cancelled read returns ctx.Err(); Run's unwind drops the partial
	// window.
	counts, err := outputs.At(ctx, ing.source, ing.cfg.Model, ing.cfg.Class, ing.res, []int{fr.Index})
	if err != nil {
		return err
	}
	if !ing.w.ObserveFrame(pos, counts[0]) {
		totalLate.Add(1)
		ing.r.mu.Lock()
		ing.r.st.Late++
		ing.r.mu.Unlock()
		return nil
	}
	ing.held[pos] = heldFrame{video: ing.source, idx: fr.Index}
	ing.prune()
	totalFrames.Add(1)
	ing.r.mu.Lock()
	ing.r.st.Frames++
	if pos+1 > ing.r.st.Position {
		ing.r.st.Position = pos + 1
	}
	ing.r.st.WindowLag = pos + 1 - ing.seq*ing.cfg.WindowStride
	ing.r.st.Live = ing.w.Current()
	ing.r.mu.Unlock()
	return nil
}

// prune forgets held-frame bookkeeping for positions the window has
// evicted. Positions are monotone, so the sweep is O(1) amortised.
func (ing *ingest) prune() {
	for ; ing.prunedLo < ing.w.Lo(); ing.prunedLo++ {
		delete(ing.held, ing.prunedLo)
	}
}

// completeThrough emits every window whose upper bound is at or before
// limit.
func (ing *ingest) completeThrough(limit int) error {
	span, stride := ing.cfg.WindowSpan, ing.cfg.WindowStride
	for ing.seq*stride+span <= limit {
		lo := ing.seq * stride
		ing.w.Advance(lo)
		ing.prune()
		res := WindowResult{
			Seq:      ing.seq,
			Lo:       lo,
			Hi:       lo + span,
			Estimate: ing.w.Current(),
			Frames:   ing.w.Count(),
		}
		if ing.cfg.Verify {
			// Detector outputs are deterministic and integer counts make
			// the estimator arithmetic exact, so equality is bitwise.
			if full := ing.recomputeWindow(); full != res.Estimate {
				return fmt.Errorf("stream: window %d incremental state %+v != full regeneration %+v", ing.seq, res.Estimate, full)
			}
		}
		if ing.cfg.Baseline != nil {
			_, values := ing.w.Snapshot()
			res.Divergence = ing.cfg.Baseline.Divergence(values)
			res.Drifted = res.Divergence > ing.r.thresh
		}
		ing.emit(res)
		ing.seq++
	}
	return nil
}

// recomputeWindow rebuilds the current window from scratch: fresh
// detection of every held frame into a fresh estimator — the oracle
// Verify holds incremental refresh to, independent of the column store.
func (ing *ingest) recomputeWindow() estimate.Estimate {
	fresh, err := estimate.NewWindow(ing.cfg.Agg, ing.cfg.WindowSpan, ing.cfg.Params, true)
	if err != nil {
		panic(err) // the receiver's own config built a window already
	}
	fresh.Advance(ing.w.Lo())
	frames, _ := ing.w.Snapshot()
	for _, pos := range frames {
		h := ing.held[pos]
		dets := ing.cfg.Model.DetectFrame(h.video, h.idx, ing.res)
		fresh.ObserveFrame(pos, float64(detect.CountClass(dets, ing.cfg.Class)))
	}
	return fresh.Current()
}

// emit publishes a completed window (and its drift event, if any).
func (ing *ingest) emit(res WindowResult) {
	totalWindows.Add(1)
	var ev *DriftEvent
	if res.Drifted {
		totalDrifts.Add(1)
		ev = &DriftEvent{
			Seq:          res.Seq,
			Lo:           res.Lo,
			Hi:           res.Hi,
			Divergence:   res.Divergence,
			Threshold:    ing.r.thresh,
			WindowMean:   windowMean(ing.w),
			BaselineMean: ing.cfg.Baseline.Mean,
			Frames:       res.Frames,
		}
	}
	ing.r.mu.Lock()
	st := &ing.r.st
	st.Windows++
	st.NextWindow = res.Seq + 1
	st.WindowLag = maxInt(0, st.Position-(res.Seq+1)*ing.cfg.WindowStride)
	cp := res
	st.LastWindow = &cp
	if ev != nil {
		st.Drifts++
		e := *ev
		st.LastDrift = &e
	}
	ing.r.mu.Unlock()
	if ing.cfg.OnWindow != nil {
		ing.cfg.OnWindow(res)
	}
	if ev != nil && ing.cfg.OnDrift != nil {
		ing.cfg.OnDrift(*ev)
	}
}

// windowMean returns the plain mean of the window's observations (for
// drift reporting; the estimate's Value folds in bound shrinkage).
func windowMean(w *estimate.Window) float64 {
	_, values := w.Snapshot()
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
