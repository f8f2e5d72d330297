package raster

import "math"

// MotionBlurHInto writes the horizontal motion blur of src into dst:
// dst(x, y) is the mean of the src columns [x+offX-left, x+offX+right]
// clipped to src's bounds, on the same row. It models the streaking a
// moving camera (or a deliberately long exposure) smears along the travel
// axis — the "motion blur" intervention — as a separable 1-D box along x.
//
// dst and src must have equal heights and must not alias; offX maps dst
// column 0 onto a src column, letting callers blur a padded source region
// into a smaller destination so that region renders are independent of the
// region choice (the pad carries exactly the pixels the window can reach).
// Windows are normalised by their clipped width, so edge columns average
// only real pixels and src's bounds must coincide with the frame's for
// edge behaviour to be region-independent.
//
// The kernel is a sliding window per row — O(w + left + right) per row
// instead of the naive O(w·(left+right)) scan (retained as
// motionBlurHNaiveInto, the property-test oracle).
func MotionBlurHInto(dst, src *Image, left, right, offX int) {
	if left < 0 || right < 0 {
		panic("raster: MotionBlurHInto with negative reach")
	}
	if dst.H != src.H {
		panic("raster: MotionBlurHInto height mismatch")
	}
	w, h, sw := dst.W, dst.H, src.W
	if w == 0 || h == 0 {
		return
	}
	forRowBlocks(h, func(rowLo, rowHi int) {
		for y := rowLo; y < rowHi; y++ {
			srow := src.Pix[y*sw : y*sw+sw]
			drow := dst.Pix[y*w : y*w+w]
			// Seed the window for x = 0 by direct scan, then slide: each
			// step admits column x+offX+right and retires x-1+offX-left,
			// each clipped against src's bounds.
			lo := offX - left
			hi := offX + right
			var sum float64
			cnt := 0
			for cx := max(lo, 0); cx <= min(hi, sw-1); cx++ {
				sum += float64(srow[cx])
				cnt++
			}
			for x := 0; x < w; x++ {
				if cnt > 0 {
					drow[x] = float32(sum / float64(cnt))
				} else {
					drow[x] = 0
				}
				if enter := hi + 1; enter >= 0 && enter < sw {
					sum += float64(srow[enter])
					cnt++
				}
				if lo >= 0 && lo < sw {
					sum -= float64(srow[lo])
					cnt--
				}
				lo++
				hi++
			}
		}
	})
}

// QuantizeLevels rounds every sample of img to the nearest of `levels`
// uniformly spaced intensities on [0, 1], in place. It models the
// posterization a coarse codec (JPEG-style quantization at low quality)
// applies to smooth gradients: with few levels, low-contrast objects merge
// into the background band that contains them. levels must be at least 2;
// 256 is visually lossless for this pipeline's float32 intensities.
//
// The transform is pointwise and deterministic, so it composes freely
// with any region decomposition.
func QuantizeLevels(img *Image, levels int) {
	if levels < 2 {
		panic("raster: QuantizeLevels needs at least 2 levels")
	}
	scale := float64(levels - 1)
	inv := 1 / scale
	forRowBlocks(img.H, func(rowLo, rowHi int) {
		for i := rowLo * img.W; i < rowHi*img.W; i++ {
			v := float64(clamp01(img.Pix[i]))
			img.Pix[i] = float32(math.Round(v*scale) * inv)
		}
	})
}
