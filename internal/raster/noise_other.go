//go:build !amd64

package raster

// noiseSIMD reports whether noiseRow runs a SIMD body; off amd64 it never does.
const noiseSIMD = false

// noiseRow is the one noise kernel (see noiseRowGo); off amd64 it is the Go
// body alone.
func noiseRow(out, in, bg []float32, rowTerm uint64, step float32) {
	noiseRowGo(out, in, bg, rowTerm, step, 0)
}
