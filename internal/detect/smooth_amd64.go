package detect

// smoothPlaneAVX2 is smoothPlaneGo over a whole w x h plane, w >= 10,
// h = len(v)/w: abs holds w*h samples, zero w, and mask mw = maskWords(w)
// words per row, each written. Edge rows (one neighbour in bounds, or none
// when h is 1) scale by inv2e and inv3e, interior rows by inv2i and inv3i,
// the two-column and three-column window inverses (windowInv).
//
//go:noescape
func smoothPlaneAVX2(abs, v, zero []float32, mask []uint64, w, mw int, inv2e, inv3e, inv2i, inv3i, t float32)

// runSumAVX2 is runSumGo: two four-lane float64 accumulators.
//
//go:noescape
func runSumAVX2(c []float32) float64
