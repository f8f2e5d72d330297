//go:build !amd64

package raster

// simd reports whether the row kernels run SIMD bodies; off amd64 they never
// do, so every dispatch compiles to its Go body alone and the stubs below
// are never called.
const simd = false

const noSIMD = "raster: no SIMD body off amd64"

func noisePlaneAVX2(out, in, bg []float32, w, bgStride int, seed uint64, step float32) {
	panic(noSIMD)
}

func blendRowAVX2(out, row []float32, i0, i1 []int32, f []float32) { panic(noSIMD) }

func lerpRowAVX2(out, tops, bots []float32, fy float32) { panic(noSIMD) }

func boxColsAVX2(out []float32, ints []float64, taps []boxTap, inv []float64, invY float64) {
	panic(noSIMD)
}

func integrateRows4AVX2(out []float64, rows []float32, stride int, edges []boxEdge) { panic(noSIMD) }
