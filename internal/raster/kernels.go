package raster

import "sync"

// kernelRowBlock is the fixed row-block granule of the separable kernels.
// The vertical blur pass re-seeds its running window sum at every block
// boundary, so the block size is part of the numeric contract (pinned by
// TestGoldenKernelBytes): block boundaries are a pure function of the
// image height.
const kernelRowBlock = 32

// forRowBlocks partitions [0, n) into kernelRowBlock-sized blocks and runs
// fn(lo, hi) for each, in order, on the calling goroutine.
func forRowBlocks(n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += kernelRowBlock {
		fn(lo, min(lo+kernelRowBlock, n))
	}
}

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
