package scene_test

import (
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// rowViews are the pixel views the row invariant is checked under: each
// pixel axis alone and all of them at once, blur up to MaxBlurLen.
var rowViews = map[string]scene.View{
	"clean":     {},
	"noise":     {ExtraNoise: 0.2},
	"blur-odd":  {BlurLen: 9},
	"blur-even": {BlurLen: 8},
	"blur-max":  {BlurLen: scene.MaxBlurLen},
	"quantize":  {Levels: 8},
	"occlusion": {Occlusion: 0.5},
	"combined":  {ExtraNoise: 0.1, BlurLen: scene.MaxBlurLen, Levels: 8, Occlusion: 0.3},
}

// blurReach is how many columns left and right of a pixel the view's blur
// reads (scene's own rule, restated: even lengths trail to the right).
func blurReach(vw scene.View) (left, right int) {
	if vw.BlurLen <= 1 {
		return 0, 0
	}
	return (vw.BlurLen - 1) / 2, vw.BlurLen / 2
}

// TestObjectFreeRowsAreBackground pins the invariant ResampleObjectRowsInto
// stands on (see Video.Background): under every pixel view, a row of a
// rendered region that the bbox of no object meeting the region widened by
// the blur's reach spans is the Background() row over the region, bit for
// bit. For every registered corpus it renders the busiest frame, a frame
// with an object clipped at the frame edge and a quiet one — whole, and in
// regions beside an object, as far from it as the blur still reaches, so
// the object is in the region's render only through the blur's pad. Under
// blur some of those rows must differ from the background: an object just
// outside a region spills into it, so a rule that looked only at objects
// inside the region would be wrong.
func TestObjectFreeRowsAreBackground(t *testing.T) {
	for _, name := range dataset.Names() {
		base := dataset.MustLoad(name)
		frames := sampleFrames(t, base)
		for vname, vw := range rowViews {
			v := base.WithView(vw)
			bg := v.Background()
			left, right := blurReach(vw)
			checked, spilled := 0, 0
			for _, i := range frames {
				for _, region := range testRegions(v, i) {
					img := v.RenderRegion(i, region)
					widened := region
					widened.MinX -= left
					widened.MaxX += right
					drawn, inside := objectRows(v, i, region, widened), objectRows(v, i, region, region)
					for y := 0; y < img.H; y++ {
						same := true
						for x := 0; x < img.W; x++ {
							got, want := img.Pix[y*img.W+x], bg.Pix[(region.MinY+y)*bg.W+region.MinX+x]
							same = same && math.Float32bits(got) == math.Float32bits(want)
						}
						switch {
						case !drawn[y]:
							checked++
							if !same {
								t.Fatalf("%s %s frame %d region %v: object-free row %d differs from the background", name, vname, i, region, region.MinY+y)
							}
						case !inside[y] && !same:
							spilled++
						}
					}
				}
			}
			if checked == 0 {
				t.Fatalf("%s %s: no object-free row in frames %v", name, vname, frames)
			}
			if vw.BlurLen > 1 && spilled == 0 {
				t.Fatalf("%s %s: no object outside a region spilled into it; the regions test less than they claim", name, vname)
			}
		}
	}
}

// TestResampleObjectRowsMatchesFullResample: starting from the resampled
// background, ResampleObjectRowsInto gives the bits of resampling the whole
// render — for whole frames, regions beside an object and patches around
// one, at near-identity, heavy, growing and equal sizes, under every view.
func TestResampleObjectRowsMatchesFullResample(t *testing.T) {
	for _, name := range []string{"small", "mvi-40775"} {
		base := dataset.MustLoad(name)
		frames := sampleFrames(t, base)
		for vname, vw := range rowViews {
			v := base.WithView(vw)
			for _, i := range frames {
				for _, region := range testRegions(v, i) {
					rw, rh := region.W(), region.H()
					sizes := [][2]int{{rw, rh}, {max(1, rw*19/20), max(1, rh*19/20)}, {max(1, rw/7), max(1, rh/5)}}
					if rw*rh < 100_000 {
						sizes = append(sizes, [2]int{rw*2 + 1, rh + 3})
					}
					for _, s := range sizes {
						want := raster.Downsample(v.RenderRegion(i, region), s[0], s[1])
						got := raster.New(s[0], s[1])
						raster.ResampleRegionInto(got, v.Background(), region)
						v.ResampleObjectRowsInto(got, i, region)
						for k := range want.Pix {
							if math.Float32bits(got.Pix[k]) != math.Float32bits(want.Pix[k]) {
								t.Fatalf("%s %s frame %d region %v at %dx%d: pixel (%d,%d) = %v, full resample %v",
									name, vname, i, region, s[0], s[1], k%s[0], k/s[0], got.Pix[k], want.Pix[k])
							}
						}
					}
				}
			}
		}
	}
}

// testRegions returns the whole frame and, for each of frame i's first two
// objects, regions just right of it — adjacent, and starting as many columns
// past its bbox as the blur's left reach still spans (where quantization can
// round the faint spill away) — regions just left of it likewise, and a
// detector-style patch around it.
func testRegions(v *scene.Video, i int) []raster.Rect {
	frame := raster.RectWH(0, 0, v.Config.Width, v.Config.Height)
	left, right := blurReach(v.View())
	out := []raster.Rect{frame}
	objs := v.Frame(i).Objects
	for k := 0; k < min(2, len(objs)); k++ {
		b := objs[k].BBox
		rows := raster.Rect{MinY: b.MinY - 8, MaxY: b.MaxY + 8}
		gl, gr := max(left-1, 0), max(right-1, 0)
		for _, r := range []raster.Rect{
			{MinX: b.MaxX, MinY: rows.MinY, MaxX: b.MaxX + 48, MaxY: rows.MaxY},
			{MinX: b.MaxX + gl, MinY: rows.MinY, MaxX: b.MaxX + gl + 48, MaxY: rows.MaxY},
			{MinX: b.MinX - 48, MinY: rows.MinY, MaxX: b.MinX, MaxY: rows.MaxY},
			{MinX: b.MinX - gr - 48, MinY: rows.MinY, MaxX: b.MinX - gr, MaxY: rows.MaxY},
			{MinX: b.MinX - 6, MinY: b.MinY - 6, MaxX: b.MaxX + 6, MaxY: b.MaxY + 6},
		} {
			if r = r.Intersect(frame); !r.Empty() {
				out = append(out, r)
			}
		}
	}
	return out
}

// objectRows marks the rows of region that the bbox of an object meeting
// reach spans.
func objectRows(v *scene.Video, i int, region, reach raster.Rect) []bool {
	rows := make([]bool, region.H())
	for _, obj := range v.Frame(i).Objects {
		if obj.BBox.Intersect(reach).Empty() {
			continue
		}
		for y := max(obj.BBox.MinY, region.MinY); y < min(obj.BBox.MaxY, region.MaxY); y++ {
			rows[y-region.MinY] = true
		}
	}
	return rows
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
