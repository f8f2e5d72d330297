package raster

import (
	"math"
	"math/rand"
	"testing"
)

// TestMotionBlurMatchesNaive property-tests the sliding-window horizontal
// motion blur against the direct per-pixel oracle, over asymmetric
// reaches (even kernel lengths split left/right unevenly) and offsets
// (region rendering blurs a destination strip against a wider padded
// source).
func TestMotionBlurMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type cfg struct{ sw, sh, dw, left, right, offX int }
	cases := []cfg{
		{1, 1, 1, 0, 0, 0},
		{9, 4, 9, 3, 3, 0},
		{9, 4, 9, 3, 4, 0},    // even length: asymmetric reach
		{33, 7, 20, 4, 5, 6},  // strip with offset
		{64, 16, 64, 15, 15, 0},
		{5, 3, 5, 15, 16, 0},  // reach wider than the image
	}
	for i := 0; i < 10; i++ {
		sw := 1 + rng.Intn(90)
		dw := 1 + rng.Intn(sw)
		left := rng.Intn(9)
		cases = append(cases, cfg{sw, 1 + rng.Intn(40), dw, left, rng.Intn(9), rng.Intn(sw - dw + 1)})
	}
	for _, c := range cases {
		src := randomImage(rng, c.sw, c.sh)
		fast := New(c.dw, c.sh)
		naive := New(c.dw, c.sh)
		MotionBlurHInto(fast, src, c.left, c.right, c.offX)
		motionBlurHNaiveInto(naive, src, c.left, c.right, c.offX)
		checkFinite(t, fast, "motion blur fast")
		if d := maxAbsDiff(fast, naive); d > 1e-5 {
			t.Errorf("motion blur %dx%d dw=%d L=%d R=%d off=%d: max diff %g > 1e-5",
				c.sw, c.sh, c.dw, c.left, c.right, c.offX, d)
		}
	}
}

// TestMotionBlurIdentity: zero reach is a copy.
func TestMotionBlurIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomImage(rng, 23, 11)
	dst := New(23, 11)
	MotionBlurHInto(dst, src, 0, 0, 0)
	if d := maxAbsDiff(dst, src); d != 0 {
		t.Fatalf("identity blur changed pixels: max diff %g", d)
	}
}

// TestQuantizeLevelsMatchesNaive property-tests the in-place quantizer
// against its pointwise oracle across level counts, including values
// outside [0,1] (the quantizer also clamps).
func TestQuantizeLevelsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, levels := range []int{2, 3, 16, 32, 255, 256} {
		src := randomImage(rng, 41, 19)
		// Push some samples outside [0,1] to exercise the clamp.
		for i := range src.Pix {
			if i%7 == 0 {
				src.Pix[i] = src.Pix[i]*3 - 1
			}
		}
		fast := src.Clone()
		naive := src.Clone()
		QuantizeLevels(fast, levels)
		quantizeLevelsNaive(naive, levels)
		checkFinite(t, fast, "quantize fast")
		if d := maxAbsDiff(fast, naive); d > 1e-5 {
			t.Errorf("quantize levels=%d: max diff %g > 1e-5", levels, d)
		}
		// Quantized values land exactly on the level grid.
		scale := float32(levels - 1)
		for i, v := range fast.Pix {
			q := v * scale
			if math.Abs(float64(q-float32(math.Round(float64(q))))) > 1e-4 {
				t.Fatalf("levels=%d: pixel %d value %g off-grid", levels, i, v)
			}
		}
	}
}

// TestMotionBlurPanics: malformed geometry is a programming error, not a
// rendering mode.
func TestMotionBlurPanics(t *testing.T) {
	src := New(8, 4)
	for name, fn := range map[string]func(){
		"negative left":   func() { MotionBlurHInto(New(8, 4), src, -1, 0, 0) },
		"negative right":  func() { MotionBlurHInto(New(8, 4), src, 0, -1, 0) },
		"height mismatch": func() { MotionBlurHInto(New(8, 3), src, 1, 1, 0) },
		"levels<2":        func() { QuantizeLevels(src, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
