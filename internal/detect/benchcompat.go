package detect

// Quantized, DeltaMode and DeltaDetectMode (with outputs.Sharing) report the
// one pipeline that exists: float rasters, per-frame evaluation, shared
// columns. Their sole caller is benchmark/provenance.go, which product PRs
// may not edit; the next benchmark-archetype PR drops its three report
// fields and deletes these with them.

// Quantized reports false.
func Quantized() bool { return false }

// DeltaMode has the single value DeltaOff.
type DeltaMode int

// DeltaOff is per-frame evaluation.
const DeltaOff DeltaMode = 0

func (DeltaMode) String() string { return "off" }

// DeltaDetectMode reports DeltaOff.
func DeltaDetectMode() DeltaMode { return DeltaOff }
