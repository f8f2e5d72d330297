package detect

import "sync/atomic"

// This file holds the package's cumulative invocation counter and the
// registry through which the detector-output column store
// (internal/outputs) participates in the detect package's cache lifecycle
// without an import cycle: detect owns the downsampled-background cache
// and the counter; outputs owns the per-frame detection columns and
// registers reset/stats hooks here so the existing ResetCaches/Stats
// entry points keep covering every detector-derived artifact.

// invocationCount counts physical model invocations — frame evaluations
// through DetectFrame (patch path) or DetectPixels (full-frame path) —
// for the profile-generation time experiment (Section 5.3.1) and the
// daemon's /metrics. A lock-free atomic keeps the counter off the
// frame-evaluation hot path: under parallel profile generation every
// worker pool bumps it, and a mutex here would serialize them.
var invocationCount atomic.Int64

// Invocations returns the total number of model frame evaluations
// performed so far. Unlike the pre-column-store accounting, which counted
// at the cache layer, this counts at the detector itself: every physical
// evaluation, regardless of which cache (or no cache) requested it.
func Invocations() int64 {
	return invocationCount.Load()
}

func countInvocation() {
	invocationCount.Add(1)
}

// cacheHook is the lifecycle interface an external detector-output cache
// registers. All methods must be safe for concurrent use.
type cacheHook struct {
	// reset drops every cached entry.
	reset func()
	// fill populates the output-series fields of a CacheStats report.
	fill func(s *CacheStats)
}

var (
	hooks     atomic.Pointer[cacheHook]
	viewHooks atomic.Pointer[cacheHook]
)

// RegisterOutputCache wires an external detector-output cache into
// ResetCaches and Stats. internal/outputs calls this from its
// package init; at most one cache is supported (later registrations
// replace earlier ones).
func RegisterOutputCache(reset func(), fill func(s *CacheStats)) {
	hooks.Store(&cacheHook{reset: reset, fill: fill})
}

// RegisterViewCache wires the degraded-view cache (internal/degrade's
// per-(corpus, view spec) derived videos) into ResetCaches and Stats,
// mirroring RegisterOutputCache.
func RegisterViewCache(reset func(), fill func(s *CacheStats)) {
	viewHooks.Store(&cacheHook{reset: reset, fill: fill})
}

// ResetCaches clears every detector-derived cache — the output column
// store (via its registered hook), downsampled backgrounds — and the
// invocation counter. Tests and the
// profile-generation-time experiment use it to measure cold-cache
// behaviour.
func ResetCaches() {
	if h := viewHooks.Load(); h != nil && h.reset != nil {
		h.reset()
	}
	if h := hooks.Load(); h != nil && h.reset != nil {
		h.reset()
	}
	resetBackgrounds()
	invocationCount.Store(0)
}

// CacheStats is a byte-accounted size report of the detector-derived
// in-process caches: the output column store's series plus the detect
// package's own background cache.
type CacheStats struct {
	// FullSeries / FullBytes cover fully materialised per-corpus output
	// columns; SparseSeries / SparseEntries / SparseBytes cover partially
	// evaluated ones. Both are filled by the registered output cache.
	FullSeries    int
	FullBytes     int64
	SparseSeries  int
	SparseEntries int
	SparseBytes   int64
	// BackgroundImages / BackgroundBytes cover the downsampled static
	// backgrounds cached by the full-frame path: 4 bytes per pixel.
	BackgroundImages int
	BackgroundBytes  int64
	// ViewVideos / ViewBytes cover the degraded-view cache: derived
	// per-(corpus, view spec) videos and their lazily materialized rasters
	// (transformed backgrounds, occlusion masks). Filled by the registered
	// view cache.
	ViewVideos int
	ViewBytes  int64

	renderCompat // benchcompat.go
}

// PerEntryOverhead approximates the fixed cost of one cache entry: the
// key (pointer + string header + ints) plus map bucket overhead. Shared by
// the outputs column store and the degraded-view cache so byte accounting
// is uniform across the detector caches.
const PerEntryOverhead = 96

// TotalBytes returns the total accounted size of all detector caches.
func (s CacheStats) TotalBytes() int64 {
	return s.FullBytes + s.SparseBytes + s.BackgroundBytes + s.ViewBytes
}

// Stats reports the current size of the detector caches. The caches are
// unbounded, which is the right
// default for experiment reruns but not for a long-running service.
func Stats() CacheStats {
	var s CacheStats
	if h := hooks.Load(); h != nil && h.fill != nil {
		h.fill(&s)
	}
	if h := viewHooks.Load(); h != nil && h.fill != nil {
		h.fill(&s)
	}
	n, bytes := backgroundStats()
	s.BackgroundImages = n
	s.BackgroundBytes = bytes
	return s
}
