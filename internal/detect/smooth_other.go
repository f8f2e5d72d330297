//go:build !amd64

package detect

// smoothRowAVX2 has no body off amd64, where raster.SIMD is false.
func smoothRowAVX2(out, cur, prev, next []float32, mask []uint64, inv3, t float32) (float32, float32) {
	panic("detect: no SIMD body off amd64")
}
