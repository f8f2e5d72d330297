package scene_test

import (
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/scene"
)

// TestObjectFreeRowsAreBackground pins the invariant the camera's capture
// stands on (see Video.Background): under every pixel view, a row of a
// rendered frame that no object's bbox intersects is the Background() row,
// bit for bit. For every registered corpus it renders the busiest frame, a
// frame with an object clipped at the frame edge and a quiet one, through
// each pixel axis alone and all of them at once, blur up to MaxBlurLen.
func TestObjectFreeRowsAreBackground(t *testing.T) {
	views := map[string]scene.View{
		"clean":     {},
		"noise":     {ExtraNoise: 0.2},
		"blur-odd":  {BlurLen: 9},
		"blur-even": {BlurLen: 8},
		"blur-max":  {BlurLen: scene.MaxBlurLen},
		"quantize":  {Levels: 8},
		"occlusion": {Occlusion: 0.5},
		"combined":  {ExtraNoise: 0.1, BlurLen: scene.MaxBlurLen, Levels: 8, Occlusion: 0.3},
	}
	for _, name := range dataset.Names() {
		base := dataset.MustLoad(name)
		frames := sampleFrames(t, base)
		for vname, vw := range views {
			v := base.WithView(vw)
			bg := v.Background()
			checked := 0
			for _, i := range frames {
				img := v.RenderNative(i)
				covered := make([]bool, img.H)
				for _, obj := range v.Frame(i).Objects {
					for y := obj.BBox.MinY; y < obj.BBox.MaxY; y++ {
						covered[y] = true
					}
				}
				for y, c := range covered {
					if c {
						continue
					}
					checked++
					for x := 0; x < img.W; x++ {
						got, want := img.Pix[y*img.W+x], bg.Pix[y*bg.W+x]
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s %s frame %d: object-free row %d differs from the background at x=%d: %v vs %v", name, vname, i, y, x, got, want)
						}
					}
				}
			}
			if checked == 0 {
				t.Fatalf("%s %s: no object-free row in frames %v", name, vname, frames)
			}
		}
	}
}

// sampleFrames picks the frame with the most objects, the first frame with
// an object clipped at the left or right frame edge, and the frame with the
// fewest objects.
func sampleFrames(t *testing.T, v *scene.Video) []int {
	t.Helper()
	busiest, quietest, clipped := 0, 0, -1
	for i := 0; i < v.NumFrames(); i++ {
		objs := v.Frame(i).Objects
		if len(objs) > len(v.Frame(busiest).Objects) {
			busiest = i
		}
		if len(objs) < len(v.Frame(quietest).Objects) {
			quietest = i
		}
		for _, obj := range objs {
			if clipped < 0 && (obj.BBox.MinX == 0 || obj.BBox.MaxX == v.Config.Width) {
				clipped = i
			}
		}
	}
	if clipped < 0 {
		t.Fatalf("%s: no frame with an object clipped at the frame edge", v.Config.Name)
	}
	return []int{busiest, clipped, quietest}
}
