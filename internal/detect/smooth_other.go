//go:build !amd64

package detect

const noSIMD = "detect: no SIMD body off amd64"

// The AVX2 bodies have none off amd64, where raster.SIMD is false.

func smoothPlaneAVX2(abs, v, zero []float32, mask []uint64, w, mw int, inv2e, inv3e, inv2i, inv3i, t float32) {
	panic(noSIMD)
}

func runSumAVX2(c []float32) float64 { panic(noSIMD) }
