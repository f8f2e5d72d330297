// Pixel-space corpus views: the deterministic render-time transforms
// behind the non-sampling intervention axes. A View is attached to a
// derived Video (Video.WithView); every render of that video — full
// frames, detector patches, the static background — passes through the
// same transform chain, so detectors see a consistently degraded world
// and background subtraction still cancels everything static.
//
// Transform order is fixed: motion blur (scene optics), then occlusion
// (dirt and scratches on the lens, in front of the blurred scene), then
// intensity quantization (the codec, last in any real capture chain).
// Extra sensor noise stays statistical: like the base corpus's own noise
// it is applied by detectors after downsampling at the effective
// amplitude, never baked into pixels (see Lighting.NoiseSigma).
//
// Every transform is a pure function of (view, frame pixels, native pixel
// position), so region renders are independent of the region choice: blur
// reads a horizontally padded source region carrying exactly the pixels
// its window can reach, occlusion looks up a full-frame mask by native
// coordinate, and quantization is pointwise.
package scene

import (
	"fmt"

	"smokescreen/internal/raster"
	"smokescreen/internal/stats"
)

// View is a canonical vector of pixel-space transforms applied to a corpus
// at render time. The zero View is the identity.
type View struct {
	// ExtraNoise is additional sensor noise sigma on top of the scene's
	// own, applied statistically by detectors post-downsample (the paper's
	// noise-addition intervention).
	ExtraNoise float32
	// BlurLen is the horizontal motion-blur streak length in native
	// pixels; 0 and 1 are the identity.
	BlurLen int
	// Levels is the number of uniform intensity quantization levels
	// (JPEG-style compression); 0 disables, minimum otherwise is 2.
	Levels int
	// Occlusion is the lens scratch/dirt density in [0, 0.5]: the
	// approximate fraction of obstruction events per unit of the catalog's
	// maximum (0.5 ≈ dozens of scratches and dirt spots).
	Occlusion float64
}

// occlusionShade is the intensity of lens dirt and scratches: near-black,
// as an obstruction in front of the scene blocks light rather than adding
// it. Static, so background subtraction cancels it except where it
// overlaps a moving object.
const occlusionShade = 0.05

// MaxBlurLen bounds the blur streak so its spill stays within the padding
// envelope region renders carry (and within the reach the degrade axis
// registry validates against).
const MaxBlurLen = 31

// Validate reports whether the view is within the supported envelope.
func (vw View) Validate() error {
	switch {
	case vw.ExtraNoise < 0 || vw.ExtraNoise > 0.5:
		return fmt.Errorf("scene: view noise %v out of [0, 0.5]", vw.ExtraNoise)
	case vw.BlurLen < 0 || vw.BlurLen > MaxBlurLen:
		return fmt.Errorf("scene: view blur length %d out of [0, %d]", vw.BlurLen, MaxBlurLen)
	case vw.Levels < 0 || vw.Levels == 1 || vw.Levels > 256:
		return fmt.Errorf("scene: view quantization levels %d not 0 or in [2, 256]", vw.Levels)
	case vw.Occlusion < 0 || vw.Occlusion > 0.5:
		return fmt.Errorf("scene: view occlusion density %v out of [0, 0.5]", vw.Occlusion)
	}
	return nil
}

// IsZero reports whether the view is the identity.
func (vw View) IsZero() bool { return vw == View{} }

// PixelTransforms reports whether the view changes rendered pixels (as
// opposed to only adding statistical noise).
func (vw View) PixelTransforms() bool {
	return vw.BlurLen > 1 || vw.Levels >= 2 || vw.Occlusion > 0
}

// blurReach returns how many columns the blur window extends left and
// right of each pixel (both zero when blur is off). Even lengths put the
// longer tail trailing (to the right), like a streak behind the motion.
func (vw View) blurReach() (left, right int) {
	if vw.BlurLen <= 1 {
		return 0, 0
	}
	return (vw.BlurLen - 1) / 2, vw.BlurLen / 2
}

// WithView returns a view of the corpus observed through the given pixel
// transforms: the pixel half of the intervention space. The
// derived Video shares the frame annotations; detectors treat it as a
// distinct corpus (all their caches key on the Video pointer), and every
// render path applies the transforms, so degradation reaches detection
// through the same pixel pipeline as everything else.
//
// Views compose: applying a view to an already-viewed video adds noise
// sigmas and keeps the tighter of each pixel transform (longer blur,
// fewer levels, denser occlusion).
func (v *Video) WithView(view View) *Video {
	if view.IsZero() {
		return v
	}
	merged := v.view
	merged.ExtraNoise += view.ExtraNoise
	if view.BlurLen > merged.BlurLen {
		merged.BlurLen = view.BlurLen
	}
	if view.Levels != 0 && (merged.Levels == 0 || view.Levels < merged.Levels) {
		merged.Levels = view.Levels
	}
	if view.Occlusion > merged.Occlusion {
		merged.Occlusion = view.Occlusion
	}
	cfg := v.Config
	cfg.Lighting.NoiseSigma += view.ExtraNoise
	return &Video{Config: cfg, frames: v.frames, view: merged}
}

// View returns the pixel-space view this video is observed through (the
// zero View for a base corpus).
func (v *Video) View() View { return v.view }

// CachedRasterBytes reports the bytes of lazily materialized per-Video
// rasters (backgrounds, occlusion mask) currently held by this Video
// value. The degrade view cache sums it over live views so detect.Stats can
// account for view-derived memory.
func (v *Video) CachedRasterBytes() int64 { return v.cachedBytes.Load() }

// applyViewInto writes the view-transformed pixels of dstRegion into dst,
// reading the raw composite from src, which must cover srcRegion — a
// horizontal superset of dstRegion expanded by the blur reach and clipped
// to the frame, on the same rows. Because the clip happens at frame
// bounds, MotionBlurHInto's edge normalization against src's bounds is
// identical to full-frame rendering, making the result independent of the
// region decomposition. Without blur the regions are equal and src may be
// dst itself.
func (v *Video) applyViewInto(dst, src *raster.Image, dstRegion, srcRegion raster.Rect) {
	if left, right := v.view.blurReach(); left+right > 0 {
		raster.MotionBlurHInto(dst, src, left, right, dstRegion.MinX-srcRegion.MinX)
	} else if dst != src {
		copy(dst.Pix, src.Pix)
	}
	if v.view.Occlusion > 0 {
		mask := v.occlusionMask()
		w := v.Config.Width
		for y := 0; y < dst.H; y++ {
			mrow := mask[(dstRegion.MinY+y)*w:]
			drow := dst.Pix[y*dst.W : (y+1)*dst.W]
			for x := range drow {
				if mrow[dstRegion.MinX+x] {
					drow[x] = occlusionShade
				}
			}
		}
	}
	if v.view.Levels >= 2 {
		raster.QuantizeLevels(dst, v.view.Levels)
	}
}

// occlusionMask lazily builds the full-frame lens obstruction mask:
// near-vertical scratches and round dirt spots, counts scaled by the
// view's density. The pattern is a pure function of (corpus seed, view
// occlusion density), so every render of the same viewed corpus — and
// every region of it — sees the same obstructions.
func (v *Video) occlusionMask() []bool {
	v.occOnce.Do(func() {
		cfg := &v.Config
		w, h := cfg.Width, cfg.Height
		mask := make([]bool, w*h)
		s := stats.NewStream(cfg.Seed ^ 0x0cc10ded)
		scratches := int(v.view.Occlusion*40 + 0.5)
		for k := 0; k < scratches; k++ {
			cs := s.ChildN(1, uint64(k))
			x0 := cs.Float64() * float64(w)
			slope := (cs.Float64() - 0.5) * 0.5 // near-vertical: |dx/dy| <= 0.25
			width := 1 + cs.Intn(2)
			for y := 0; y < h; y++ {
				x := int(x0 + slope*float64(y))
				for dx := 0; dx < width; dx++ {
					if x+dx >= 0 && x+dx < w {
						mask[y*w+x+dx] = true
					}
				}
			}
		}
		spots := int(v.view.Occlusion*100 + 0.5)
		for k := 0; k < spots; k++ {
			cs := s.ChildN(2, uint64(k))
			cx := cs.Float64() * float64(w)
			cy := cs.Float64() * float64(h)
			r := 1.5 + cs.Float64()*3.5
			for y := int(cy - r); y <= int(cy+r); y++ {
				if y < 0 || y >= h {
					continue
				}
				for x := int(cx - r); x <= int(cx+r); x++ {
					if x < 0 || x >= w {
						continue
					}
					dx, dy := float64(x)+0.5-cx, float64(y)+0.5-cy
					if dx*dx+dy*dy <= r*r {
						mask[y*w+x] = true
					}
				}
			}
		}
		v.occ = mask
		v.cachedBytes.Add(int64(len(mask)))
	})
	return v.occ
}
