package raster

import (
	"math"
	"math/rand"
	"testing"
)

// checkResampleRows resamples destination rows [lo, hi) of src into a
// sentinel-filled dst from a copy of src whose rows outside SourceRows are
// NaN, and requires those rows to be DownsampleInto's bit for bit and every
// other destination row untouched: the row-range call is the same kernel
// and reads nothing it does not name.
func checkResampleRows(t *testing.T, src *Image, dw, dh, lo, hi int) {
	t.Helper()
	want := New(dw, dh)
	DownsampleInto(want, src)

	poisoned := src.Clone()
	if lo < hi {
		slo, shi := SourceRows(want, src, lo, hi)
		if slo < 0 || shi > src.H || slo >= shi {
			t.Fatalf("%dx%d -> %dx%d rows [%d,%d): source rows [%d,%d) outside the source", src.W, src.H, dw, dh, lo, hi, slo, shi)
		}
		for y := 0; y < src.H; y++ {
			if y < slo || y >= shi {
				for x := 0; x < src.W; x++ {
					poisoned.Pix[y*src.W+x] = float32(math.NaN())
				}
			}
		}
	}
	const sentinel = -7
	got := New(dw, dh)
	for i := range got.Pix {
		got.Pix[i] = sentinel
	}
	ResampleRowsInto(got, poisoned, lo, hi)
	for y := 0; y < dh; y++ {
		for x := 0; x < dw; x++ {
			g, w := got.Pix[y*dw+x], want.Pix[y*dw+x]
			if y >= lo && y < hi {
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%dx%d -> %dx%d rows [%d,%d): (%d,%d) = %v, DownsampleInto %v", src.W, src.H, dw, dh, lo, hi, x, y, g, w)
				}
			} else if g != sentinel {
				t.Fatalf("%dx%d -> %dx%d rows [%d,%d): wrote row %d outside the range", src.W, src.H, dw, dh, lo, hi, y)
			}
		}
	}
}

// TestResampleRowsMatchesDownsampleInto: every row range of every kernel
// shape — integer and non-integer box downsampling, bilinear upsampling
// above the corpus width, one axis up and one down, equal size, 1-pixel
// edges — equals the same rows of the full-range call.
func TestResampleRowsMatchesDownsampleInto(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	type dims struct{ sw, sh, dw, dh int }
	cases := []dims{
		{320, 320, 160, 160}, {320, 320, 96, 96}, {640, 640, 608, 608}, {640, 640, 96, 96},
		{320, 320, 608, 608}, {64, 48, 17, 13}, {40, 9, 13, 33}, {31, 31, 31, 31},
		{1, 1, 1, 1}, {1, 9, 1, 4}, {9, 1, 4, 1}, {1, 7, 5, 20}, {2, 2, 1, 1},
	}
	for i := 0; i < 12; i++ {
		cases = append(cases, dims{1 + rng.Intn(120), 1 + rng.Intn(120), 1 + rng.Intn(160), 1 + rng.Intn(160)})
	}
	for _, c := range cases {
		src := randomImage(rng, c.sw, c.sh)
		ranges := [][2]int{{0, c.dh}, {0, 1}, {c.dh - 1, c.dh}, {0, 0}, {c.dh / 2, c.dh / 2}}
		for i := 0; i < 6; i++ {
			lo := rng.Intn(c.dh)
			ranges = append(ranges, [2]int{lo, lo + 1 + rng.Intn(c.dh-lo)})
		}
		for _, r := range ranges {
			checkResampleRows(t, src, c.dw, c.dh, r[0], r[1])
		}
	}
}

// FuzzResampleRows is the same property over fuzzed shapes and ranges.
func FuzzResampleRows(f *testing.F) {
	f.Add(uint8(160), uint8(160), uint8(80), uint8(80), uint8(10), uint8(30), int64(1))
	f.Add(uint8(60), uint8(40), uint8(114), uint8(76), uint8(0), uint8(76), int64(2))
	f.Add(uint8(255), uint8(255), uint8(243), uint8(243), uint8(100), uint8(101), int64(3))
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh, lo, n uint8, seed int64) {
		w, h := 1+int(sw), 1+int(sh)
		tw, th := 1+int(dw), 1+int(dh)
		a := int(lo) % th
		b := a + int(n)%(th-a+1)
		checkResampleRows(t, randomImage(rand.New(rand.NewSource(seed)), w, h), tw, th, a, b)
	})
}
