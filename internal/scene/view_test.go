package scene

import (
	"math"
	"testing"

	"smokescreen/internal/raster"
)

// viewedVideo returns the test corpus observed through a view exercising
// every pixel transform.
func viewedVideo(t *testing.T, vw View) *Video {
	t.Helper()
	v := mustGenerate(t, testConfig())
	return v.WithView(vw)
}

// TestViewRegionIndependence is the soundness property behind region
// rendering under views: any region render of a viewed corpus must equal
// the corresponding crop of the full-frame render. Blur reads beyond the
// region, occlusion is position-keyed, quantization is pointwise — a
// region-dependent result would mean detector patches see different
// pixels than the full frames the ground truth comes from.
func TestViewRegionIndependence(t *testing.T) {
	views := map[string]View{
		"blur-odd":  {BlurLen: 7},
		"blur-even": {BlurLen: 8},
		"blur-max":  {BlurLen: MaxBlurLen},
		"quantize":  {Levels: 16},
		"occlusion": {Occlusion: 0.3},
		"combined":  {BlurLen: 9, Levels: 32, Occlusion: 0.2},
	}
	regions := []raster.Rect{
		raster.RectWH(40, 40, 200, 200),
		raster.RectWH(0, 0, 17, 13), // frame corner: blur window clipped left
		raster.RectWH(300, 100, 20, 60),
		raster.RectWH(0, 0, 320, 180), // full frame through the region path
	}
	for name, vw := range views {
		v := viewedVideo(t, vw)
		native := v.RenderNative(3)
		for _, region := range regions {
			region = region.Intersect(raster.RectWH(0, 0, v.Config.Width, v.Config.Height))
			sub := v.RenderRegion(3, region)
			for y := 0; y < sub.H; y++ {
				for x := 0; x < sub.W; x++ {
					got := sub.At(x, y)
					want := native.At(region.MinX+x, region.MinY+y)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s: region %v differs from full frame at (%d,%d): %v vs %v",
							name, region, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestViewTransformsChangePixels: each axis actually degrades the image
// (the property tests above would pass vacuously for a no-op).
func TestViewTransformsChangePixels(t *testing.T) {
	base := mustGenerate(t, testConfig())
	raw := base.RenderNative(3)
	for name, vw := range map[string]View{
		"blur":      {BlurLen: 9},
		"quantize":  {Levels: 4},
		"occlusion": {Occlusion: 0.3},
	} {
		img := base.WithView(vw).RenderNative(3)
		diff := 0
		for i := range raw.Pix {
			if raw.Pix[i] != img.Pix[i] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("%s: view changed no pixels", name)
		}
	}
}

// TestViewComposition: WithView on an already-viewed video merges to the
// tighter setting on every axis and adds noise sigmas.
func TestViewComposition(t *testing.T) {
	v := mustGenerate(t, testConfig())
	a := v.WithView(View{ExtraNoise: 0.1, BlurLen: 7, Levels: 32, Occlusion: 0.1})
	b := a.WithView(View{ExtraNoise: 0.05, BlurLen: 5, Levels: 16, Occlusion: 0.3})
	got := b.view
	want := View{ExtraNoise: 0.15000001, BlurLen: 7, Levels: 16, Occlusion: 0.3}
	if math.Abs(float64(got.ExtraNoise-want.ExtraNoise)) > 1e-6 {
		t.Errorf("composed noise %v, want ~%v", got.ExtraNoise, want.ExtraNoise)
	}
	if got.BlurLen != want.BlurLen || got.Levels != want.Levels || got.Occlusion != want.Occlusion {
		t.Errorf("composed view %+v, want %+v", got, want)
	}
}

// TestOcclusionMaskDeterministic: the mask is a pure function of (corpus
// seed, density) — same video regenerated, same mask; density scales the
// obstruction count.
func TestOcclusionMaskDeterministic(t *testing.T) {
	m1 := viewedVideo(t, View{Occlusion: 0.3}).occlusionMask()
	m2 := viewedVideo(t, View{Occlusion: 0.3}).occlusionMask()
	count := func(m []bool) int {
		n := 0
		for _, b := range m {
			if b {
				n++
			}
		}
		return n
	}
	if count(m1) == 0 {
		t.Fatal("occlusion mask empty at density 0.3")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("occlusion mask not deterministic across generations")
		}
	}
	sparse := viewedVideo(t, View{Occlusion: 0.05}).occlusionMask()
	if count(sparse) >= count(m1) {
		t.Fatalf("density 0.05 mask (%d px) not sparser than 0.3 (%d px)", count(sparse), count(m1))
	}
}
