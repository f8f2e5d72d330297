package raster

import (
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

// checkNoiseRow holds the dispatched noiseRow to the Go body bit for bit on
// one row of n pixels starting off elements into its buffers (so the SIMD
// body sees unaligned rows), with out either a separate row or in itself.
func checkNoiseRow(t *testing.T, seed int64, n, off int, alias bool, special int, rowTerm uint64, step float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := noiseRowInput(rng, off+n, special)[off:]
	bg := noiseRowInput(rng, off+n, special)[off:]

	want := make([]float32, n)
	noiseRowGo(want, in, bg, rowTerm, step, 0)
	got := make([]float32, off+n)[off:]
	if alias {
		copy(got, in)
		noiseRow(got, got, bg, rowTerm, step)
	} else {
		noiseRow(got, in, bg, rowTerm, step)
	}
	ctx := "noiseRow"
	if simd {
		ctx = "noiseRowAVX2"
	}
	requireSameBits(t, ctx, got, want)
}

// noiseRowStep is the step of a sigma 2^(-20·u) for u in [0, 1]: sigmas
// from 2^-20 to 1.
func noiseRowStep(u float64) float32 {
	return noiseStep * (float32(math.Exp2(-20*u)) / 0.5)
}

// TestNoiseRowMatchesGoBody sweeps every row length 0–300 at each unaligned
// offset, in place and not, with and without special values, over row terms
// and sigmas from 2^-20 to 1. Every len%8 runs: the AVX2 body's eight-pixel
// steps alone, with its last group of four, and either beside the Go
// body's len%4 tail. Non-finite steps (an infinite or NaN sigma)
// make the noise term itself a NaN beside NaN pixels, which pins the add's
// operand order: x86 returns the first source's NaN.
func TestNoiseRowMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			checkNoiseRow(t, rng.Int63(), n, off, off%2 == 1, []int{0, 3}[n%2], rng.Uint64(), noiseRowStep(rng.Float64()))
		}
	}
	for _, step := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		for n := 0; n <= 40; n++ {
			checkNoiseRow(t, rng.Int63(), n, n%4, n%2 == 1, 1, rng.Uint64()&^0xffffffff, step)
		}
	}
}

// FuzzNoiseRow is the same property over fuzzed rows, offsets, row terms
// and sigmas.
func FuzzNoiseRow(f *testing.F) {
	f.Add(int64(1), uint16(152), uint8(0), false, uint8(0), uint64(0), uint16(0))
	f.Add(int64(2), uint16(150), uint8(1), true, uint8(2), uint64(1)<<63, uint16(65535))
	f.Add(int64(3), uint16(3), uint8(3), false, uint8(1), uint64(0x9e3779b97f4a7c15), uint16(30000))
	f.Add(int64(4), uint16(300), uint8(2), true, uint8(5), uint64(12345), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, off uint8, alias bool, special uint8, rowTerm uint64, sigma uint16) {
		checkNoiseRow(t, seed, int(n)%301, int(off)%4, alias, int(special)%8, rowTerm, noiseRowStep(float64(sigma)/65535))
	})
}

// BenchmarkNoiseRow is one 152-pixel row through the Go body and through
// the dispatched kernel; simd is skipped where the Go body is the only one.
func BenchmarkNoiseRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in, bg, out := noiseRowInput(rng, 152, 0), noiseRowInput(rng, 152, 0), make([]float32, 152)
	step := noiseStep * (0.02 / 0.5)
	b.Run("go", func(b *testing.B) {
		b.SetBytes(152 * 4)
		for i := 0; i < b.N; i++ {
			noiseRowGo(out, in, bg, uint64(i), step, 0)
		}
	})
	b.Run("simd", func(b *testing.B) {
		if !simd {
			b.Skip("noiseRow runs the Go body on this CPU")
		}
		b.SetBytes(152 * 4)
		for i := 0; i < b.N; i++ {
			noiseRow(out, in, bg, uint64(i), step)
		}
	})
}
