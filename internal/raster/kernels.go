package raster

import "sync"

// kernelRowBlock is the fixed row-block granule of BoxBlurInto's vertical
// pass, which re-seeds its running window sum at every block boundary, so
// the block size is part of the numeric contract (pinned by
// TestGoldenKernelBytes): block boundaries are a pure function of the image
// height.
const kernelRowBlock = 32

// SIMD reports whether the row kernels run their AVX2 bodies: this package's
// resample and noise rows and detect's denoise row (on CPUs with AVX-512 the
// noise plane and the bilinear blend run AVX-512 bodies instead). It is
// part of the one CPU decision, made at package init; the Go bodies are
// bit-identical, so it changes speed only.
func SIMD() bool { return simd }

// f64Pool recycles the float64 accumulator slabs (prefix sums, row sums,
// sliding windows) that the separable kernels need per call, as pointers to
// their slices, so a round trip boxes nothing. Pooled slabs are resliced,
// never zeroed; every consumer overwrites its slab fully before reading.
var f64Pool sync.Pool

// getF64 returns a slab of n float64 and the handle to give back to putF64.
func getF64(n int) (*[]float64, []float64) {
	p, _ := f64Pool.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p, (*p)[:n]
}

func putF64(p *[]float64) { f64Pool.Put(p) }
