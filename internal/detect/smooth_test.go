package detect

import (
	"math"
	"math/rand"
	"slices"
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

// smoothThresholds are the thresholds a vector mask can get wrong beside
// ordinary ones: zero of either sign (±0 samples are not masked, nonzero
// ones are), a negative one (every non-NaN sample is masked), infinity and
// NaN (nothing is masked).
var smoothThresholds = []float32{
	0, float32(math.Copysign(0, -1)), -0.25, float32(math.Inf(1)), float32(math.NaN()),
}

// TestSmoothRowMatchesGoBody holds smoothRow with its AVX2 body (where
// raster.SIMD holds) to its Go body alone bit for bit, outputs and mask
// words: every width 1–70, so every len%8 tail, at buffer offsets 0–7, with
// one to three rows in bounds, special values among the samples and
// ordinary and special thresholds. A NaN output is never masked.
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
			tau := rng.Float32() * 0.6
			if off%2 == 1 {
				tau = smoothThresholds[(n+off/2)%len(smoothThresholds)]
			}
			want, wantMask := make([]float32, n), make([]uint64, maskWords(n))
			smoothRow(want, cur, prev, next, cy, tau, wantMask, false)
			got, gotMask := make([]float32, off+n)[off:], make([]uint64, maskWords(n))
			smoothRow(got, cur, prev, next, cy, tau, gotMask, raster.SIMD())
			for x := range want {
				if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
					t.Fatalf("smoothRow width %d at +%d, %d rows (SIMD %v): column %d = %x (%v), Go body %x (%v)",
						n, off, cy, raster.SIMD(), x, math.Float32bits(got[x]), got[x], math.Float32bits(want[x]), want[x])
				}
				bit := x + maskOff
				masked := gotMask[bit>>6]>>(bit&63)&1 == 1
				if math.IsNaN(float64(got[x])) && masked {
					t.Fatalf("smoothRow width %d at +%d: column %d is NaN and masked", n, off, x)
				}
			}
			for i := range wantMask {
				if gotMask[i] != wantMask[i] {
					t.Fatalf("smoothRow width %d at +%d, %d rows, tau %v (SIMD %v): mask word %d = %064b, Go body %064b",
						n, off, cy, tau, raster.SIMD(), i, gotMask[i], wantMask[i])
				}
			}
		}
	}
}

// TestMaskRuns holds maskRuns to a per-column scan over random masks of
// widths 1–200, so runs start and end at, and cross, every word boundary.
func TestMaskRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for w := 1; w <= 200; w++ {
		for trial := 0; trial < 20; trial++ {
			on := make([]bool, w)
			mask := make([]uint64, maskWords(w))
			density := rng.Float64()
			for x := range on {
				if on[x] = rng.Float64() < density; on[x] {
					bit := x + maskOff
					mask[bit>>6] |= 1 << (bit & 63)
				}
			}
			var want []int32
			for x := 0; x < w; x++ {
				if on[x] && (x == 0 || !on[x-1]) {
					want = append(want, int32(x))
				}
				if on[x] && (x == w-1 || !on[x+1]) {
					want = append(want, int32(x+1))
				}
			}
			if got := maskRuns(nil, mask); !slices.Equal(got, want) {
				t.Fatalf("width %d: maskRuns = %v, want %v", w, got, want)
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
	mask := make([]uint64, maskWords(608))
	for _, simd := range []bool{false, true} {
		b.Run(map[bool]string{false: "go", true: "simd"}[simd], func(b *testing.B) {
			if simd && !raster.SIMD() {
				b.Skip("smoothRow runs its Go body on this CPU")
			}
			b.SetBytes(608 * 4)
			for i := 0; i < b.N; i++ {
				clear(mask) // zero on entry, as maskRuns leaves it
				smoothRow(out, cur, prev, next, 3, 0.2, mask, simd)
			}
		})
	}
}
