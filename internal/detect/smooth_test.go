package detect

import (
	"fmt"
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

// smoothThresholds are the thresholds a vector mask can get wrong beside
// ordinary ones: zero of either sign (±0 samples are not masked, nonzero
// ones are), a negative one (every non-NaN sample is masked), infinity and
// NaN (nothing is masked).
var smoothThresholds = []float32{
	0, float32(math.Copysign(0, -1)), -0.25, float32(math.Inf(1)), float32(math.NaN()),
}

// TestSmoothPlaneMatchesGoBody holds smoothPlane with its AVX2 body (where
// raster.SIMD holds) to its Go body alone bit for bit, contrasts and mask
// words: every width 1–70, so every len%8 tail and both sides of the first
// mask word's end (column 56 is bit 63), by heights 1–5, so planes of edge
// rows alone and with interior rows, at buffer offsets 0–7, with special
// values among the samples and ordinary and special thresholds. Both
// bodies must write every mask word (the buffers start as garbage), leave
// every bit outside the row's columns zero, and never mask a NaN.
func TestSmoothPlaneMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for w := 1; w <= 70; w++ {
		mw := maskWords(w)
		for h := 1; h <= 5; h++ {
			for off := 0; off < 8; off++ {
				v := smoothInput(rng, w*h, off)
				zero := make([]float32, off+w)[off:]
				tau := rng.Float32() * 0.6
				if off%2 == 1 {
					tau = smoothThresholds[(w+h+off/2)%len(smoothThresholds)]
				}
				want, wantMask := make([]float32, w*h), garbageMask(mw*h)
				smoothPlane(want, wantMask, v, zero, w, h, tau, false)
				got, gotMask := make([]float32, 7-off+w*h)[7-off:], garbageMask(mw*h)
				smoothPlane(got, gotMask, v, zero, w, h, tau, raster.SIMD())
				ctx := fmt.Sprintf("smoothPlane %dx%d at +%d, tau %v (SIMD %v)", w, h, off, tau, raster.SIMD())
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: sample %d = %x (%v), Go body %x (%v)", ctx, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
					}
				}
				for i := range wantMask {
					if gotMask[i] != wantMask[i] {
						t.Fatalf("%s: mask word %d = %064b, Go body %064b", ctx, i, gotMask[i], wantMask[i])
					}
				}
				for y := 0; y < h; y++ {
					for bit := 0; bit < mw*64; bit++ {
						x, on := bit-maskOff, wantMask[y*mw+bit>>6]>>(bit&63)&1 == 1
						switch {
						case on && (x < 0 || x >= w):
							t.Fatalf("%s: row %d sets bit %d, outside its %d columns", ctx, y, bit, w)
						case on && math.IsNaN(float64(want[y*w+x])):
							t.Fatalf("%s: row %d column %d is NaN and masked", ctx, y, x)
						}
					}
				}
			}
		}
	}
}

// garbageMask is n mask words of set and clear bits, none of them zero.
func garbageMask(n int) []uint64 {
	m := make([]uint64, n)
	for i := range m {
		m[i] = 0xa5a5_f00d_dead_beef
	}
	return m
}

// TestRunSumMatchesGoBody holds runSum with its AVX2 body to runSumGo bit
// for bit on runs of every length 0–70 at buffer offsets 0–7, whose partial
// sums do round (so the two must add in the same order, not merely
// exactly): positive floats across 64 binades, wider than a float64's
// 53-bit significand, and the non-NaN specials a masked contrast cannot be
// but the body must still carry (±0, +Inf, subnormals, 3e38). NaN is never
// masked, so no run holds one.
func TestRunSumMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			c := make([]float32, off+n)[off:]
			for i := range c {
				c[i] = float32(math.Ldexp(1+rng.Float64(), 24-rng.Intn(64)))
				if rng.Intn(8) == 0 {
					if s := smoothSpecials[rng.Intn(len(smoothSpecials))]; s == s && s >= 0 {
						c[i] = s
					}
				}
			}
			want := runSum(c, false)
			if got := runSum(c, raster.SIMD()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("runSum of %d at +%d (SIMD %v) = %x (%v), Go body %x (%v)",
					n, off, raster.SIMD(), math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}

// BenchmarkSmoothPlane is one 57x54 plane, the cold cube's average patch
// shape, through smoothPlane's Go body and through its AVX2 body; simd is
// skipped where the Go body is the only one.
func BenchmarkSmoothPlane(b *testing.B) {
	const w, h = 57, 54
	rng := rand.New(rand.NewSource(1))
	v, zero, abs := smoothInput(rng, w*h, 0), make([]float32, w), make([]float32, w*h)
	mask := make([]uint64, maskWords(w)*h)
	for _, simd := range []bool{false, true} {
		b.Run(map[bool]string{false: "go", true: "simd"}[simd], func(b *testing.B) {
			if simd && !raster.SIMD() {
				b.Skip("smoothPlane runs its Go body on this CPU")
			}
			b.SetBytes(w * h * 4)
			for i := 0; i < b.N; i++ {
				smoothPlane(abs, mask, v, zero, w, h, 0.2, simd)
			}
		})
	}
}
