package raster

import "sync"

// kernelRowBlock is the fixed row-block granule of BoxBlurInto's vertical
// pass, which re-seeds its running window sum at every block boundary, so
// the block size is part of the numeric contract (pinned by
// TestGoldenKernelBytes): block boundaries are a pure function of the image
// height.
const kernelRowBlock = 32

// SIMD reports whether the row kernels run their AVX2 bodies: this package's
// resample and noise rows and detect's denoise row. It is the one CPU
// decision, made at package init; the Go bodies are bit-identical, so it
// changes speed only.
func SIMD() bool { return simd }

// f64Pool recycles the float64 accumulator slabs (prefix sums, row sums,
// sliding windows) that the separable kernels need per call. Pooled slabs
// are resliced, never zeroed; every consumer overwrites its slab fully
// before reading.
var f64Pool sync.Pool

func getF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putF64(s []float64) {
	if s != nil {
		f64Pool.Put(s[:cap(s)]) //nolint:staticcheck // slab reuse outweighs the header box
	}
}
