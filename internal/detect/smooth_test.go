package detect

import (
	"math"
	"math/rand"
	"testing"

	"smokescreen/internal/raster"
)

// smoothSpecials are the samples a vector body can get wrong: signed zeros,
// NaNs with distinct payloads and signs, infinities and subnormals.
var smoothSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001), math.Float32frombits(0x7fc01234),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x007fffff), math.Float32frombits(0x80000001),
	3e38, -3e38,
}

// smoothInput is a row of n samples in [-1, 1) starting off elements into a
// fresh buffer, roughly one in three a special value.
func smoothInput(rng *rand.Rand, n, off int) []float32 {
	row := make([]float32, off+n)[off:]
	for i := range row {
		row[i] = rng.Float32()*2 - 1
		if rng.Intn(3) == 0 {
			row[i] = smoothSpecials[rng.Intn(len(smoothSpecials))]
		}
	}
	return row
}

// TestSmoothRowMatchesGoBody holds smoothRow with its AVX2 body (where
// raster.SIMD holds) to its Go body alone bit for bit: every width 1–70, so
// every len%8 tail, at buffer offsets 0–7, with one to three rows in bounds
// and special values among the samples.
func TestSmoothRowMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 1; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			cy := 1 + (n+off)%3
			zero := make([]float32, n)
			cur, prev, next := smoothInput(rng, n, off), smoothInput(rng, n, 7-off), zero
			if cy == 3 {
				next = smoothInput(rng, n, (off+3)%8)
			} else if cy == 1 {
				prev = zero
			}
			want := make([]float32, n)
			smoothRow(want, cur, prev, next, cy, false)
			got := make([]float32, off+n)[off:]
			smoothRow(got, cur, prev, next, cy, raster.SIMD())
			for x := range want {
				if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
					t.Fatalf("smoothRow width %d at +%d, %d rows (SIMD %v): column %d = %x (%v), Go body %x (%v)",
						n, off, cy, raster.SIMD(), x, math.Float32bits(got[x]), got[x], math.Float32bits(want[x]), want[x])
				}
			}
		}
	}
}

// BenchmarkSmoothRow is one row of a 608-wide plane through smoothRow's Go
// body and through its AVX2 body; simd is skipped where the Go body is the
// only one.
func BenchmarkSmoothRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cur, prev, next, out := smoothInput(rng, 608, 0), smoothInput(rng, 608, 0), smoothInput(rng, 608, 0), make([]float32, 608)
	for _, simd := range []bool{false, true} {
		b.Run(map[bool]string{false: "go", true: "simd"}[simd], func(b *testing.B) {
			if simd && !raster.SIMD() {
				b.Skip("smoothRow runs its Go body on this CPU")
			}
			b.SetBytes(608 * 4)
			for i := 0; i < b.N; i++ {
				smoothRow(out, cur, prev, next, 3, simd)
			}
		})
	}
}
