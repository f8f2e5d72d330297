package raster

import (
	"math"
	"math/rand"
	"testing"
)

func randomImage(rng *rand.Rand, w, h int) *Image {
	img := New(w, h)
	for i := range img.Pix {
		img.Pix[i] = rng.Float32()
	}
	return img
}

func maxAbsDiff(a, b *Image) float64 {
	var max float64
	for i := range a.Pix {
		d := math.Abs(float64(a.Pix[i]) - float64(b.Pix[i]))
		if d > max {
			max = d
		}
	}
	return max
}

func checkFinite(t *testing.T, img *Image, ctx string) {
	t.Helper()
	for i, v := range img.Pix {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("%s: non-finite pixel %v at %d", ctx, v, i)
		}
	}
}

// TestDownsampleMatchesNaive property-tests the prefix-sum downsampler
// against the retained boxAverage oracle over random sizes, including
// non-integer scale factors and extreme aspect ratios.
func TestDownsampleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type dims struct{ sw, sh, dw, dh int }
	cases := []dims{
		{64, 48, 17, 13}, {100, 100, 100, 100}, {99, 7, 13, 3},
		{7, 99, 3, 13}, {160, 120, 16, 12}, {31, 31, 30, 30},
		{2, 2, 1, 1}, {640, 352, 63, 35},
	}
	for i := 0; i < 12; i++ {
		sw := 1 + rng.Intn(200)
		sh := 1 + rng.Intn(200)
		cases = append(cases, dims{sw, sh, 1 + rng.Intn(sw), 1 + rng.Intn(sh)})
	}
	for _, c := range cases {
		src := randomImage(rng, c.sw, c.sh)
		fast := New(c.dw, c.dh)
		naive := New(c.dw, c.dh)
		DownsampleInto(fast, src)
		downsampleNaiveInto(naive, src)
		checkFinite(t, fast, "downsample fast")
		if d := maxAbsDiff(fast, naive); d > 1e-5 {
			t.Errorf("downsample %dx%d -> %dx%d: max diff %g > 1e-5", c.sw, c.sh, c.dw, c.dh, d)
		}
	}
}

// TestBoxBlurMatchesNaive property-tests the separable sliding-window blur
// against the direct O(r^2)-per-pixel oracle for radii 0..8.
func TestBoxBlurMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type dims struct{ w, h int }
	cases := []dims{{1, 1}, {1, 9}, {9, 1}, {5, 5}, {33, 31}, {64, 64}, {130, 67}}
	for i := 0; i < 6; i++ {
		cases = append(cases, dims{1 + rng.Intn(120), 1 + rng.Intn(120)})
	}
	for _, c := range cases {
		src := randomImage(rng, c.w, c.h)
		for r := 0; r <= 8; r++ {
			fast := New(c.w, c.h)
			naive := New(c.w, c.h)
			BoxBlurInto(fast, src, r)
			boxBlurNaiveInto(naive, src, r)
			checkFinite(t, fast, "blur fast")
			if d := maxAbsDiff(fast, naive); d > 1e-5 {
				t.Errorf("blur %dx%d r=%d: max diff %g > 1e-5", c.w, c.h, r, d)
			}
		}
	}
}

// TestBilinearEdgeClamp is the boundary-clamp regression: 1-pixel-wide/high
// sources must replicate their row/column (the old implementation read
// out-of-bounds zeros and faded the edges to black), and constant images
// must stay constant under non-integer upscale factors.
func TestBilinearEdgeClamp(t *testing.T) {
	// 1x1 source: every output pixel is the source value.
	one := New(1, 1)
	one.Pix[0] = 0.7
	up := New(5, 4)
	bilinearInto(up, one)
	for i, v := range up.Pix {
		if math.Abs(float64(v)-0.7) > 1e-6 {
			t.Fatalf("1x1 upsample: pixel %d = %v, want 0.7", i, v)
		}
	}

	// 1xN column source: each output row replicates the interpolated column.
	col := New(1, 4)
	for y := 0; y < 4; y++ {
		col.Pix[y] = float32(y) / 3
	}
	wide := New(6, 4)
	bilinearInto(wide, col)
	for y := 0; y < 4; y++ {
		first := wide.Pix[y*6]
		for x := 1; x < 6; x++ {
			if wide.Pix[y*6+x] != first {
				t.Fatalf("1xN upsample: row %d not constant: %v vs %v", y, wide.Pix[y*6+x], first)
			}
		}
	}

	// Nx1 row source: each output column replicates the interpolated row.
	rowSrc := New(4, 1)
	for x := 0; x < 4; x++ {
		rowSrc.Pix[x] = float32(x) / 3
	}
	tall := New(4, 6)
	bilinearInto(tall, rowSrc)
	for x := 0; x < 4; x++ {
		first := tall.Pix[x]
		for y := 1; y < 6; y++ {
			if tall.Pix[y*4+x] != first {
				t.Fatalf("Nx1 upsample: col %d not constant: %v vs %v", x, tall.Pix[y*4+x], first)
			}
		}
	}

	// Constant image stays constant (and in range) at a non-integer scale.
	flat := New(7, 5)
	for i := range flat.Pix {
		flat.Pix[i] = 0.25
	}
	odd := New(11, 9)
	bilinearInto(odd, flat)
	for i, v := range odd.Pix {
		if math.Abs(float64(v)-0.25) > 1e-6 {
			t.Fatalf("flat non-integer upsample: pixel %d = %v, want 0.25", i, v)
		}
	}

	// Ramp is preserved exactly at corners: the corner samples clamp to the
	// corner source pixels.
	ramp := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			ramp.Pix[y*8+x] = float32(x+y) / 14
		}
	}
	big := New(13, 13)
	bilinearInto(big, ramp)
	checkFinite(t, big, "bilinear ramp")
	corners := [][3]int{{0, 0, 0}, {12, 0, 7}, {0, 12, 7 * 8}, {12, 12, 7*8 + 7}}
	for _, c := range corners {
		got := big.Pix[c[1]*13+c[0]]
		want := ramp.Pix[c[2]]
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("corner (%d,%d) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

// TestDownsampleNaiveIdentityPath documents that the oracle also reduces to
// a copy at identical dimensions, like the fast path.
func TestDownsampleNaiveIdentityPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomImage(rng, 12, 9)
	naive := New(12, 9)
	downsampleNaiveInto(naive, src)
	if d := maxAbsDiff(naive, src); d > 1e-6 {
		t.Fatalf("naive identity: max diff %g", d)
	}
}
