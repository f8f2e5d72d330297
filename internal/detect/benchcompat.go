package detect

// Quantized, DeltaMode, DeltaDetectMode and RenderCacheBudget (with
// outputs.Sharing) report the one pipeline that exists: float rasters,
// per-frame evaluation, shared columns, no render cache. Their sole callers
// are benchmark/provenance.go and benchmark/probes.go, which product PRs
// may not edit; the next benchmark-archetype PR drops its four report
// fields and detect.render_hit_ratio and deletes these with them.

// Quantized reports false.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/provenance.go reports it
func Quantized() bool { return false }

// DeltaMode has the single value DeltaOff.
type DeltaMode int

// DeltaOff is per-frame evaluation.
const DeltaOff DeltaMode = 0

func (DeltaMode) String() string { return "off" }

// DeltaDetectMode reports DeltaOff.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/provenance.go reports it
func DeltaDetectMode() DeltaMode { return DeltaOff }

// RenderCacheBudget reports 0: there is no degraded-frame render cache.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/provenance.go reports it
func RenderCacheBudget() int64 { return 0 }

// renderCompat keeps CacheStats.RenderHits/RenderMisses resolving for
// benchmark/probes.go; both are always zero.
type renderCompat struct {
	RenderHits   int64
	RenderMisses int64
}
