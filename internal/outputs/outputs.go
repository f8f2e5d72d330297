// Package outputs is the detector-output column store: the single place
// detector results are cached, keyed by the *physical* unit of work —
// (corpus view, model, input resolution, frame). One DetectFrame call
// reports detections for every class the model can see, so the store keeps
// a per-frame vector of per-class counts ("columns") and serves any class
// projection from the same row. Estimators — fraction sweeps, hypercube
// cells, Algorithm 3 correction sets, stream windows (a row per received
// frame, most often filled by the stream's drift baseline) — read columns
// instead of re-invoking the detector, which is what makes a multi-class
// profile batch cost one detection pass per (frame, resolution) rather than
// one per (frame, resolution, class). Presence scans read the same rows and
// probe — not detect — the frames that have none (see Presence).
//
// Degraded corpus views (noise addition) are distinct *scene.Video values
// (see degrade.EffectiveVideo), so the (video, model, p) key covers the
// paper's (corpus, frame, resolution, noise) unit exactly.
//
// Every read is context-aware: detection work stops promptly on
// cancellation and partially computed batches are discarded, never stored.
// The store registers reset/stats hooks with internal/detect so the
// established detect.ResetCaches / detect.Stats entry points keep
// covering it.
package outputs

import (
	"context"
	"sync"
	"sync/atomic"

	"smokescreen/internal/detect"
	"smokescreen/internal/parallel"
	"smokescreen/internal/scene"
)

// vec is one stored row: the model's object count for every class on one
// frame. scene.NumClasses is tiny, so rows are flat arrays, not maps.
type vec [scene.NumClasses]float64

// colKey identifies one column table: the physical (view, model,
// resolution) unit, shared by every class.
type colKey struct {
	video *scene.Video
	model string
	p     int
}

// table holds the rows of one column key. full is materialised once every
// frame of the corpus has a row; proj caches per-class []float64
// projections of a full table (the series shape estimators consume).
// present caches the bitmaps Presence computed on this table, so they are
// reset and byte-accounted with it; scan marks a scan in flight.
type table struct {
	mu      sync.Mutex
	n       int // corpus frame count
	rows    map[int]vec
	claim   map[int]chan struct{} // frames being detected right now
	full    []vec
	proj    map[scene.Class][]float64
	present [scene.NumClasses][]bool
	scan    [scene.NumClasses]chan struct{}
}

// probe is one presence scan riding on ensure: the class asked about and
// the answers so far. A true bit is final — an early exit leaves no row to
// re-derive it from — and a false bit is always backed by a stored row.
type probe struct {
	class scene.Class
	bits  []bool
}

var (
	storeMu sync.Mutex
	tables  = map[colKey]*table{}

	// frameHits counts frame-values served without detector work;
	// framesDetected counts frames count reads computed (and kept);
	// presenceProbes counts frames Presence probed instead, of which
	// presenceEarlyExits stopped at the first deciding object (no row kept).
	frameHits          atomic.Int64
	framesDetected     atomic.Int64
	presenceProbes     atomic.Int64
	presenceEarlyExits atomic.Int64
)

func init() {
	detect.RegisterOutputCache(Reset, fillCacheStats)
}

// Sharing reports true: one detection pass serves every class. Its sole
// caller is benchmark/provenance.go (see detect.Quantized), and it goes
// with that report field in the next benchmark-archetype PR.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/provenance.go reports it
func Sharing() bool { return true }

func getTable(v *scene.Video, model string, p int) *table {
	key := colKey{video: v, model: model, p: p}
	storeMu.Lock()
	defer storeMu.Unlock()
	t, ok := tables[key]
	if !ok {
		t = &table{
			n:     v.NumFrames(),
			rows:  make(map[int]vec),
			claim: make(map[int]chan struct{}),
			proj:  make(map[scene.Class][]float64),
		}
		tables[key] = t
	}
	return t
}

// ensure guarantees rows exist for every frame in frames, detecting the
// missing ones. Frames already claimed by a concurrent caller are waited
// on rather than recomputed, so racing sweeps never duplicate detector
// work — each physical frame is detected at most once per table (absent
// cancellation). On ctx cancellation claimed-but-uncomputed frames are
// released and nothing partial is stored. With a probe, frames are probed
// for pr.class instead: pr.bits is filled for every frame, and only probes
// that ran to completion leave a row.
func (t *table) ensure(ctx context.Context, v *scene.Video, m *detect.Model, p int, frames []int, pr *probe) error {
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		var mine []int
		var waits []chan struct{}
		hits := 0
		t.mu.Lock()
		if t.full != nil {
			if pr != nil {
				for _, f := range frames {
					pr.bits[f] = t.full[f][pr.class] > 0
				}
			}
			t.mu.Unlock()
			if first {
				frameHits.Add(int64(len(frames)))
			}
			return nil
		}
		for _, f := range frames {
			if pr != nil && pr.bits[f] {
				continue // decided by an early exit on a previous pass
			}
			if r, ok := t.rows[f]; ok {
				hits++
				if pr != nil {
					pr.bits[f] = r[pr.class] > 0
				}
				continue
			}
			if ch, ok := t.claim[f]; ok {
				waits = append(waits, ch)
				continue
			}
			ch := make(chan struct{})
			t.claim[f] = ch
			mine = append(mine, f)
		}
		t.mu.Unlock()
		if first {
			// Count hits once per request; re-check iterations would
			// recount frames this very call just computed or waited for.
			frameHits.Add(int64(hits))
		}

		if len(mine) > 0 {
			if err := t.compute(ctx, v, m, p, mine, pr); err != nil {
				return err
			}
		}
		if len(waits) == 0 {
			return nil
		}
		for _, ch := range waits {
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		// A claimant may have aborted (cancelled) without storing its
		// frames; re-check and claim whatever is still missing. Only the
		// waited-on frames can be missing now, so the loop converges.
	}
}

// compute detects (or, with a probe, probes) the claimed frames in parallel
// and stores the rows of every frame that was evaluated to the end. Claims
// are always released — on failure without storing, so waiters re-check and
// recover the work, as they do for a frame whose probe exited early.
func (t *table) compute(ctx context.Context, v *scene.Video, m *detect.Model, p int, frames []int, pr *probe) error {
	// Background is rendered lazily behind a sync.Once; touch it before
	// fanning out so workers share one render.
	v.Background()
	rs := make([]vec, len(frames))
	present, early := make([]bool, len(frames)), make([]bool, len(frames))
	err := parallel.ForCtx(ctx, len(frames), 0, func(i int) error {
		if pr == nil {
			rs[i] = countRow(m.DetectFrame(v, frames[i], p))
			return nil
		}
		hit, dets, complete := m.ProbeFrame(v, frames[i], p, pr.class)
		rs[i], present[i], early[i] = countRow(dets), hit, !complete
		return nil
	})
	exits := 0
	t.mu.Lock()
	if err == nil {
		for i, f := range frames {
			if pr != nil {
				pr.bits[f] = present[i]
			}
			if early[i] {
				exits++
				continue
			}
			t.rows[f] = rs[i]
		}
	}
	for _, f := range frames {
		if ch, ok := t.claim[f]; ok {
			close(ch)
			delete(t.claim, f)
		}
	}
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if pr == nil {
		framesDetected.Add(int64(len(frames)))
	} else {
		presenceProbes.Add(int64(len(frames)))
		presenceEarlyExits.Add(int64(exits))
	}
	return nil
}

// countRow folds a frame's detections into a per-class count vector.
func countRow(dets []detect.Detection) vec {
	var r vec
	for c := scene.Class(0); c < scene.NumClasses; c++ {
		r[c] = float64(detect.CountClass(dets, c))
	}
	return r
}

// Ensure materialises rows for the given frames of (v, m, p) without
// reading them — the executor's detect stage, run once over deduplicated
// plan units before estimation fans out. The table serves every class;
// the class parameter is kept for the benchmark harness, which passes it.
func Ensure(ctx context.Context, v *scene.Video, m *detect.Model, class scene.Class, p int, frames []int) error {
	if len(frames) == 0 {
		return ctx.Err()
	}
	return getTable(v, m.Name, p).ensure(ctx, v, m, p, frames, nil)
}

// At returns the per-frame counts of class objects for just the requested
// frames, detecting only frames with no stored row. The result is ordered
// like frames. Callers own the returned slice.
func At(ctx context.Context, v *scene.Video, m *detect.Model, class scene.Class, p int, frames []int) ([]float64, error) {
	t := getTable(v, m.Name, p)
	if err := t.ensure(ctx, v, m, p, frames, nil); err != nil {
		return nil, err
	}
	out := make([]float64, len(frames))
	t.mu.Lock()
	switch {
	case t.proj[class] != nil:
		s := t.proj[class]
		t.mu.Unlock()
		for i, f := range frames {
			out[i] = s[f]
		}
		return out, nil
	case t.full != nil:
		for i, f := range frames {
			out[i] = t.full[f][class]
		}
	default:
		for i, f := range frames {
			out[i] = t.rows[f][class]
		}
	}
	t.mu.Unlock()
	return out, nil
}

// Full returns the complete per-frame series of class counts over every
// frame of v — the F_model(frame_i) series the aggregate estimators
// consume — computing whatever is missing. The returned slice is the
// cached projection; callers must not mutate it.
func Full(ctx context.Context, v *scene.Video, m *detect.Model, class scene.Class, p int) ([]float64, error) {
	t := getTable(v, m.Name, p)
	t.mu.Lock()
	if s, ok := t.proj[class]; ok {
		t.mu.Unlock()
		frameHits.Add(int64(len(s)))
		return s, nil
	}
	n := t.n
	t.mu.Unlock()

	if err := t.ensure(ctx, v, m, p, allFrames(n), nil); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.proj[class]; ok {
		return s, nil
	}
	if t.full == nil {
		full := make([]vec, n)
		for f, r := range t.rows {
			full[f] = r
		}
		t.full = full
		// The row map is now redundant; free it (ensure/At read t.full).
		t.rows = make(map[int]vec)
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = t.full[i][class]
	}
	t.proj[class] = s
	return s, nil
}

// allFrames returns the frame indices 0..n-1.
func allFrames(n int) []int {
	frames := make([]int, n)
	for i := range frames {
		frames[i] = i
	}
	return frames
}

// Presence returns, for every frame, whether the restricted class c is
// present according to the paper's prior-information protocol: persons are
// detected by YOLOv4 at threshold 0.7 and faces by MTCNN at threshold 0.8,
// both at the detector's native resolution (Section 5.1) — bit for bit
// CountClass(DetectFrame(v, f, native), c) > 0.
//
// The answer is a boolean, so a frame is probed (detect.ProbeFrame), not
// detected: frames the native table already holds answer from their row,
// the rest stop at the first object that decides them (the planners Ensure
// their planned native frames before a scan). A probe that runs to the end
// — every absent frame, i.e. the admissible frames a REMOVE sweep samples —
// leaves its complete row like an ordinary read; an early exit leaves
// nothing, so a later count query detects that frame in full.
// The bitmap is cached on the table and shared: callers must not mutate
// it, and a second call makes no detector invocation.
func Presence(ctx context.Context, v *scene.Video, c scene.Class) ([]bool, error) {
	model := detect.YOLOv4Sim()
	if c == scene.Face {
		model = detect.MTCNNSim()
	}
	t := getTable(v, model.Name, model.NativeInput)
	// One scan per (table, class) at a time: a second caller waits for the
	// first's bitmap instead of re-probing the frames that exited early,
	// and takes the scan over if the first was cancelled.
	t.mu.Lock()
	for t.present[c] == nil && t.scan[c] != nil {
		busy := t.scan[c]
		t.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		t.mu.Lock()
	}
	if bits := t.present[c]; bits != nil {
		t.mu.Unlock()
		frameHits.Add(int64(len(bits)))
		return bits, nil
	}
	done := make(chan struct{})
	t.scan[c] = done
	t.mu.Unlock()

	pr := &probe{class: c, bits: make([]bool, t.n)}
	err := t.ensure(ctx, v, model, model.NativeInput, allFrames(t.n), pr)
	t.mu.Lock()
	if err == nil {
		t.present[c] = pr.bits
	}
	t.scan[c] = nil
	close(done)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return pr.bits, nil
}

// Stats is a byte-accounted and hit-accounted report of the column store.
type Stats struct {
	// Tables is the number of column tables; FullSeries of them are fully
	// materialised, SparseSeries partially.
	Tables       int
	FullSeries   int
	FullBytes    int64
	SparseSeries int
	// SparseEntries counts cached frame rows in sparse tables.
	SparseEntries int
	SparseBytes   int64
	// FrameHits counts frame-values served without detector work;
	// FramesDetected counts frames detected (and stored) for count reads.
	// Their ratio is the dedup win the plan/execute pipeline banks on.
	FrameHits      int64
	FramesDetected int64
	// PresenceProbes counts frames Presence probed instead — one detector
	// invocation each, so FramesDetected + PresenceProbes is the store's
	// detector work. PresenceEarlyExits of them stopped at the first
	// deciding object and left no row; the others stored theirs.
	PresenceProbes     int64
	PresenceEarlyExits int64
}

// rowBytes is the accounted payload of one stored row.
const rowBytes = int64(scene.NumClasses) * 8

// bytes is the table's accounted size: its rows plus its presence bitmaps.
// The caller holds t.mu.
func (t *table) bytes() int64 {
	b := int64(len(t.rows))*(rowBytes+8) + detect.PerEntryOverhead
	if t.full != nil {
		b = int64(t.n)*rowBytes + detect.PerEntryOverhead
	}
	for _, bits := range t.present {
		b += int64(len(bits))
	}
	return b
}

// ReadStats snapshots the store's counters and sizes.
func ReadStats() Stats {
	s := Stats{
		FrameHits:          frameHits.Load(),
		FramesDetected:     framesDetected.Load(),
		PresenceProbes:     presenceProbes.Load(),
		PresenceEarlyExits: presenceEarlyExits.Load(),
	}
	storeMu.Lock()
	snapshot := make([]*table, 0, len(tables))
	for _, t := range tables {
		//smokevet:ignore determinism: snapshot feeds a commutative sum (counts and byte totals); visit order cannot change the Stats values
		snapshot = append(snapshot, t)
	}
	storeMu.Unlock()
	for _, t := range snapshot {
		t.mu.Lock()
		s.Tables++
		if t.full != nil {
			s.FullSeries++
			s.FullBytes += t.bytes()
		} else {
			s.SparseSeries++
			s.SparseEntries += len(t.rows)
			s.SparseBytes += t.bytes()
		}
		t.mu.Unlock()
	}
	return s
}

// fillCacheStats populates the output-series fields of detect.CacheStats,
// keeping detect.Stats() a one-stop report across all detector caches.
func fillCacheStats(dst *detect.CacheStats) {
	s := ReadStats()
	dst.FullSeries = s.FullSeries
	dst.FullBytes = s.FullBytes
	dst.SparseSeries = s.SparseSeries
	dst.SparseEntries = s.SparseEntries
	dst.SparseBytes = s.SparseBytes
}

// Reset drops every column table and zeroes the store's counters. It is
// registered with detect.ResetCaches, which tests use for cold-cache runs.
func Reset() {
	storeMu.Lock()
	tables = map[colKey]*table{}
	storeMu.Unlock()
	frameHits.Store(0)
	framesDetected.Store(0)
	presenceProbes.Store(0)
	presenceEarlyExits.Store(0)
}
