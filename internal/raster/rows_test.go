package raster

import (
	"math"
	"math/rand"
	"testing"
)

// checkResampleRows resamples destination rows [lo, hi) of the rectangle r
// of src into a sentinel-filled dst, from a copy of src that is NaN outside r
// and on every row of r outside SourceRows, and requires those rows to be the
// reference kernel's on a compact copy of r, bit for bit, and every other
// destination row untouched: the region and row-range call is the same
// kernel and reads nothing it does not name.
func checkResampleRows(t *testing.T, src *Image, r Rect, dw, dh, lo, hi int) {
	t.Helper()
	compact := New(r.W(), r.H())
	for y := 0; y < r.H(); y++ {
		copy(compact.Pix[y*r.W():(y+1)*r.W()], src.Pix[(r.MinY+y)*src.W+r.MinX:])
	}
	want := New(dw, dh)
	resampleReference(want, compact)

	slo, shi := 0, 0
	if lo < hi {
		slo, shi = SourceRows(want, compact, lo, hi)
		if slo < 0 || shi > r.H() || slo >= shi {
			t.Fatalf("%v of %dx%d -> %dx%d rows [%d,%d): source rows [%d,%d) outside the source", r, src.W, src.H, dw, dh, lo, hi, slo, shi)
		}
	}
	poisoned := src.Clone()
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			if !r.Contains(x, y) || y < r.MinY+slo || y >= r.MinY+shi {
				poisoned.Pix[y*src.W+x] = float32(math.NaN())
			}
		}
	}
	const sentinel = -7
	got := New(dw, dh)
	for i := range got.Pix {
		got.Pix[i] = sentinel
	}
	resampleInto(got, poisoned, r, lo, hi)
	for y := 0; y < dh; y++ {
		for x := 0; x < dw; x++ {
			g, w := got.Pix[y*dw+x], want.Pix[y*dw+x]
			if y >= lo && y < hi {
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%v of %dx%d -> %dx%d rows [%d,%d): (%d,%d) = %v, reference %v", r, src.W, src.H, dw, dh, lo, hi, x, y, g, w)
				}
			} else if g != sentinel {
				t.Fatalf("%v of %dx%d -> %dx%d rows [%d,%d): wrote row %d outside the range", r, src.W, src.H, dw, dh, lo, hi, y)
			}
		}
	}
}

// TestResampleRowsMatchesDownsampleInto: every row range of every kernel
// shape — integer and non-integer box downsampling, bilinear upsampling
// above the corpus width, one axis up and one down, equal size, 1-pixel
// edges — equals the same rows of the reference kernels.
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
			checkResampleRows(t, src, RectWH(0, 0, c.sw, c.sh), c.dw, c.dh, r[0], r[1])
		}
	}
}

// TestBoxKernelMatchesPrefixOracle is the box kernel against the prefix-sum
// kernel it replaced, bit for bit, over random source rectangles of 1-200
// pixels per axis inside a larger raster, shrink ratios from 1 to 20 per
// axis, and random row ranges, on signed samples spanning 48 binary orders
// of magnitude (goldenImage's), where a changed summation order rounds
// differently.
func TestBoxKernelMatchesPrefixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 0; n < 300; n++ {
		sw, sh := 1+rng.Intn(200), 1+rng.Intn(200)
		dw := max(1, int(float64(sw)/(1+19*rng.Float64())))
		dh := max(1, int(float64(sh)/(1+19*rng.Float64())))
		ox, oy := rng.Intn(9), rng.Intn(9)
		src := signedImage(rng.Uint64(), ox+sw+rng.Intn(9), oy+sh+rng.Intn(9))
		r := RectWH(ox, oy, sw, sh)
		checkResampleRows(t, src, r, dw, dh, 0, dh)
		lo := rng.Intn(dh)
		checkResampleRows(t, src, r, dw, dh, lo, lo+1+rng.Intn(dh-lo))
	}
}

// FuzzResampleRows is the same property over fuzzed shapes, row ranges and
// source rectangles: the source sits at (ox, oy) in a raster pad pixels
// wider and taller, so its rows are read at a stride other than its width.
func FuzzResampleRows(f *testing.F) {
	f.Add(uint8(160), uint8(160), uint8(80), uint8(80), uint8(10), uint8(30), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(60), uint8(40), uint8(114), uint8(76), uint8(0), uint8(76), uint8(3), uint8(5), uint8(7), int64(2))
	f.Add(uint8(255), uint8(255), uint8(243), uint8(243), uint8(100), uint8(101), uint8(1), uint8(0), uint8(2), int64(3))
	f.Add(uint8(149), uint8(132), uint8(142), uint8(126), uint8(40), uint8(57), uint8(9), uint8(11), uint8(13), int64(4))
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh, lo, n, ox, oy, pad uint8, seed int64) {
		w, h := 1+int(sw), 1+int(sh)
		tw, th := 1+int(dw), 1+int(dh)
		a := int(lo) % th
		b := a + int(n)%(th-a+1)
		x0, y0, p := int(ox)%32, int(oy)%32, int(pad)%32
		src := randomImage(rand.New(rand.NewSource(seed)), x0+w+p, y0+h+p)
		checkResampleRows(t, src, RectWH(x0, y0, w, h), tw, th, a, b)
	})
}
