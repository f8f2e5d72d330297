package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// noiseSpecials are the inputs whose handling a vector body can get wrong:
// signed zeros, NaNs (quiet, signalling, negative), infinities, subnormals,
// the clamp bounds, and values outside them.
var noiseSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001), math.Float32frombits(0x7fc01234),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x007fffff), math.Float32frombits(0x80000001),
	1, math.Nextafter32(1, 2), math.Nextafter32(0, -1),
	-0.25, 1.5, -3e38, 3e38, 1e-6, -1e-6,
}

// noiseRowInput fills a row with values in [-0.5, 1.5), roughly one in
// every special-th replaced by a special value (none when special is 0).
func noiseRowInput(rng *rand.Rand, n, special int) []float32 {
	row := make([]float32, n)
	for i := range row {
		row[i] = rng.Float32()*2 - 0.5
		if special > 0 && rng.Intn(special) == 0 {
			row[i] = noiseSpecials[rng.Intn(len(noiseSpecials))]
		}
	}
	return row
}

// noisePlaneBody is one body of the noise kernel called directly, named by
// its tier.
type noisePlaneBody struct {
	tier string
	fn   func(out, in, bg []float32, w, bgStride int, seed uint64, step float32)
}

// noisePlaneGo is noisePlane's Go path: noiseRowGo row by row.
func noisePlaneGo(out, in, bg []float32, w, bgStride int, seed uint64, step float32) {
	for y := 0; y*w < len(out); y++ {
		noiseRowGo(out[y*w:(y+1)*w], in[y*w:], bg[y*bgStride:], pixelHashRow(seed, y), step)
	}
}

// noisePlaneBodies are the noise kernel's Go path and every SIMD body this
// CPU runs, so a host with AVX-512 still holds the AVX2 body to the Go
// body.
func noisePlaneBodies() []noisePlaneBody {
	bodies := []noisePlaneBody{{"go", noisePlaneGo}}
	if simd {
		bodies = append(bodies, noisePlaneBody{"avx2", noisePlaneAVX2})
	}
	if simd512 {
		bodies = append(bodies, noisePlaneBody{"avx512", noisePlaneAVX512})
	}
	return bodies
}

// checkNoisePlane holds the dispatched noisePlane and each SIMD body the
// CPU runs to noiseRowGo, row by row, bit for bit on a plane of h rows of w
// pixels starting off elements into its buffers (so the SIMD bodies see
// unaligned rows), with out either a separate plane or in itself, and bg
// either a plane (stride w) or one row for every row (stride 0, as
// AddNoise passes).
func checkNoisePlane(t *testing.T, seed int64, w, h, off int, alias, bgRow bool, special int, planeSeed uint64, step float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := noiseRowInput(rng, off+w*h, special)[off:]
	bgStride := w
	if bgRow {
		bgStride = 0
	}
	bg := noiseRowInput(rng, off+max(w, bgStride*h), special)[off:]

	want := make([]float32, w*h)
	for y := 0; y < h; y++ {
		noiseRowGo(want[y*w:(y+1)*w], in[y*w:], bg[y*bgStride:], pixelHashRow(planeSeed, y), step)
	}
	bodies := []noisePlaneBody{{"dispatched", noisePlane}}
	if w > 0 { // the SIMD bodies (all but the Go path, which made want) take rows of at least one column
		bodies = append(bodies, noisePlaneBodies()[1:]...)
	}
	got, guard := guardedRow(w*h, off)
	for _, b := range bodies {
		if alias {
			copy(got, in)
			b.fn(got, got, bg, w, bgStride, planeSeed, step)
		} else {
			clear(got)
			b.fn(got, in, bg, w, bgStride, planeSeed, step)
		}
		ctx := fmt.Sprintf("noisePlane %s %dx%d at +%d", b.tier, w, h, off)
		requireSameBits(t, ctx, got, want)
		requireGuard(t, ctx, guard)
	}
}

// noiseRowStep is the step of a sigma 2^(-20·u) for u in [0, 1]: sigmas
// from 2^-20 to 1.
func noiseRowStep(u float64) float32 {
	return noiseStep * (float32(math.Exp2(-20*u)) / 0.5)
}

// TestNoisePlaneMatchesGoBody sweeps every row length 0–300 by heights 1–4
// at each unaligned offset, in place and not, with a background plane and
// with one background row, with and without special values, over seeds and
// sigmas from 2^-20 to 1. Every w%16 runs, so every row ends in the AVX2
// body's masked step of 1–7 pixels or the AVX-512 body's of 1–15, or in
// none, and every row's hash takes its own row term. Non-finite steps (an
// infinite or NaN sigma) make the noise term itself a NaN beside NaN
// pixels, which pins the add's operand order: x86 returns the first
// source's NaN.
func TestNoisePlaneMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for w := 0; w <= 300; w++ {
		for h := 1; h <= 4; h++ {
			off := (w + h) % 4
			checkNoisePlane(t, rng.Int63(), w, h, off, off%2 == 1, h == 2, []int{0, 3}[w%2], rng.Uint64(), noiseRowStep(rng.Float64()))
		}
	}
	for _, step := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		for w := 0; w <= 40; w++ {
			checkNoisePlane(t, rng.Int63(), w, 1+w%4, w%4, w%2 == 1, w%3 == 0, 1, rng.Uint64()&^0xffffffff, step)
		}
	}
}

// FuzzNoiseRow is the same property over fuzzed rows (a plane of one to
// four of them), offsets, seeds and sigmas.
func FuzzNoiseRow(f *testing.F) {
	f.Add(int64(1), uint16(152), uint8(0), false, uint8(0), uint64(0), uint16(0))
	f.Add(int64(2), uint16(150), uint8(1), true, uint8(2), uint64(1)<<63, uint16(65535))
	f.Add(int64(3), uint16(3), uint8(3), false, uint8(1), uint64(0x9e3779b97f4a7c15), uint16(30000))
	f.Add(int64(4), uint16(300), uint8(2), true, uint8(5), uint64(12345), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off uint8, alias bool, special uint8, planeSeed uint64, sigma uint16) {
		checkNoisePlane(t, seed, int(n)%301, 1+int(off)/4%4, int(off)%4, alias, seed%2 == 0, int(special)%8, planeSeed, noiseRowStep(float64(sigma)/65535))
	})
}

// BenchmarkNoisePlane is one 57x54 plane, the cold cube's average patch
// shape, through each body the CPU runs: the Go body row by row (go), and
// the AVX2 and AVX-512 bodies in one call each (avx2, avx512).
func BenchmarkNoisePlane(b *testing.B) {
	const w, h = 57, 54
	rng := rand.New(rand.NewSource(1))
	in, bg, out := noiseRowInput(rng, w*h, 0), noiseRowInput(rng, w*h, 0), make([]float32, w*h)
	step := noiseStep * (0.02 / 0.5)
	for _, body := range noisePlaneBodies() {
		b.Run(body.tier, func(b *testing.B) {
			b.SetBytes(w * h * 4)
			for i := 0; i < b.N; i++ {
				body.fn(out, in, bg, w, w, uint64(i), step)
			}
		})
	}
}
