package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// oracleComponents is the historical float back half: blur3 → absMask →
// connectedComponents, each a whole-plane stage.
func oracleComponents(diff *plane, tau float64) []component {
	smooth := diff.blur3()
	scr := smooth.absMask(tau)
	comps := connectedComponents(scr.mask, scr.contrast, diff.w, diff.h)
	putPlane(smooth)
	putMaskScratch(scr)
	return comps
}

// requireSameComponents runs both back halves over diff and requires
// identical components (DeepEqual: Area, BBox and the SumContrast float64
// bits, in the same order).
func requireSameComponents(t *testing.T, ctx string, diff *plane, tau float64) []component {
	t.Helper()
	want := oracleComponents(diff, tau)
	got := floatComponents(diff, tau)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%dx%d, tau %v): components differ\n got  %+v\n want %+v", ctx, diff.w, diff.h, tau, got, want)
	}
	return want
}

// shapePlane builds a w x h difference plane from a per-pixel formula.
func shapePlane(w, h int, at func(x, y int) float32) *plane {
	p := &plane{w: w, h: h, v: make([]float32, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.v[y*w+x] = at(x, y)
		}
	}
	return p
}

// spiralGrid returns an n x m cell grid holding a one-cell-wide rectangular
// spiral with one-cell gaps: a single 4-connected path that winds inward, so
// a raster-order labeller opens a label per arm per row and unites them only
// where the arms finally turn into each other.
func spiralGrid(n, m int) []bool {
	g := make([]bool, n*m)
	taken := func(x, y int) bool { return x >= 0 && y >= 0 && x < n && y < m && g[y*n+x] }
	x, y, dx, dy := 0, 0, 1, 0
	g[0] = true
	for turns := 0; turns < 2; {
		nx, ny := x+dx, y+dy
		if nx < 0 || ny < 0 || nx >= n || ny >= m || g[ny*n+nx] || taken(nx+dx, ny+dy) {
			dx, dy = -dy, dx
			turns++
			continue
		}
		x, y, turns = nx, ny, 0
		g[y*n+x] = true
	}
	return g
}

// TestFloatComponentsMatchesOracle is the differential table: the fused
// kernel against the retained blur3/absMask/connectedComponents triple over
// degenerate and odd sizes and the mask shapes that stress a run-based
// labeller — nothing masked, everything masked, a pixel checkerboard (most
// runs, most components), a comb (every tooth its own label until the spine
// row unites them all), U and spiral shapes (late unions across long
// detours), and signed random planes at two thresholds.
//
// Shapes are drawn on the plane the blur reads, not on the mask, so each
// formula is chosen for what survives a 3x3 box: a pixel checkerboard of
// {9, 0} smooths to alternating 5 and 4 (tau 4.5 keeps the board); columns
// alternating {9, 0} smooth to 3 and 6 (1-pixel stripes); block shapes are
// drawn on 3x3 cells against tau 0.5.
func TestFloatComponentsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 2, 3, 7, 64, 113}
	for _, w := range sizes {
		for _, h := range sizes {
			w, h := w, h
			cells := func(on func(cx, cy, n, m int) bool) func(x, y int) float32 {
				// Leftover pixels widen the last cell, so no arm is thinner
				// than the blur it has to survive.
				n, m := max(1, w/3), max(1, h/3)
				return func(x, y int) float32 {
					if on(min(x/3, n-1), min(y/3, m-1), n, m) {
						return 1
					}
					return 0
				}
			}
			spiral := spiralGrid(max(1, w/3), max(1, h/3))
			shapes := []struct {
				name string
				tau  float64
				at   func(x, y int) float32
			}{
				{"all-clear", 0.05, func(x, y int) float32 { return 0.01 }},
				{"all-set", 0.05, func(x, y int) float32 { return -0.5 }},
				{"checkerboard", 4.5, func(x, y int) float32 { return float32(9 * ((x + y) % 2)) }},
				{"comb", 4.5, func(x, y int) float32 {
					if y >= h-3 || x%2 == 1 {
						return 9
					}
					return 0
				}},
				{"comb-up", 4.5, func(x, y int) float32 {
					if y < 3 || x%2 == 1 {
						return -9
					}
					return 0
				}},
				{"U", 0.5, cells(func(cx, cy, n, m int) bool { return cx == 0 || cx == n-1 || cy == m-1 })},
				{"spiral", 0.5, cells(func(cx, cy, n, m int) bool { return spiral[cy*n+cx] })},
				{"random", 0.05, func(x, y int) float32 { return rng.Float32()*2 - 1 }},
				{"random-sparse", 0.2, func(x, y int) float32 { return rng.Float32()*2 - 1 }},
			}
			for _, s := range shapes {
				comps := requireSameComponents(t, s.name, shapePlane(w, h, s.at), s.tau)
				if w < 64 || h < 64 {
					continue
				}
				// The shapes must be what they claim, or the table tests less
				// than it says.
				switch s.name {
				case "all-clear":
					if len(comps) != 0 {
						t.Fatalf("all-clear %dx%d: %d components", w, h, len(comps))
					}
				case "all-set", "comb", "comb-up", "U", "spiral":
					if len(comps) != 1 {
						t.Fatalf("%s %dx%d: %d components, want 1", s.name, w, h, len(comps))
					}
				case "checkerboard":
					if len(comps) < w*h/3 {
						t.Fatalf("checkerboard %dx%d: only %d components", w, h, len(comps))
					}
				}
			}
		}
	}
}

// TestFloatComponentsTiedOrder pins the one ordering rule a run labeller
// could get wrong without changing any component: two components that tie
// on (MinY, MinX, Area) keep first-appearance order through the stable sort.
// The hook's first pixel comes later in raster order than the bar's, but a
// labeller that numbers components by label (or by root) would emit it
// first once its two arms unite.
func TestFloatComponentsTiedOrder(t *testing.T) {
	rows := []string{
		"###......###.....",
		"###......###.....",
		"###......###.....",
		"###......###.....",
		"###......###.....",
		"###......###.....",
		"###..............",
		"###..............",
		"###..............",
	}
	for _, flip := range []bool{false, true} {
		p := shapePlane(len(rows[0]), len(rows), func(x, y int) float32 {
			if flip {
				x = len(rows[0]) - 1 - x
			}
			if rows[y][x] == '#' {
				return 1
			}
			return 0
		})
		requireSameComponents(t, fmt.Sprintf("tied flip=%v", flip), p, 0.5)
	}
}

// realObjects lists up to limit (frame, object) pairs the model evaluates.
type frameObject struct {
	frame int
	obj   *scene.Object
}

func realObjects(v *scene.Video, m *Model, frames, limit int) []frameObject {
	var out []frameObject
	for i := 0; i < frames && len(out) < limit; i++ {
		f := v.Frame(i)
		for k := range f.Objects {
			if m.CanDetect(f.Objects[k].Class) && len(out) < limit {
				out = append(out, frameObject{i, &f.Objects[k]})
			}
		}
	}
	return out
}

// patchComponentsFloatOracle is the historical float patch pipeline, buffer
// for buffer: one pooled image or plane per stage, an in-place AddNoise, a
// separate difference plane, and the three whole-plane back-half stages.
func patchComponentsFloatOracle(v *scene.Video, frameIdx, p int, obj *scene.Object, region raster.Rect, tw, th int, sigmaEff, tau float64) []component {
	nativePatch := raster.GetScratch(region.W(), region.H())
	v.RenderRegionInto(nativePatch, frameIdx, region)
	patch := raster.GetScratch(tw, th)
	defer raster.PutScratch(patch)
	raster.DownsampleInto(patch, nativePatch)
	patch.AddNoise(noiseSeed(v.Config.Seed, frameIdx, p, obj.ID), float32(sigmaEff))
	var diff *plane
	if obj.Class == scene.Face {
		diff = getPlane(tw, th)
		diff.setDiffScalar(patch, borderMean(patch))
	} else {
		bgPatch := raster.GetScratch(tw, th)
		raster.DownsampleInto(bgPatch, v.BackgroundRegion(region))
		diff = diffPlane(patch, bgPatch)
		raster.PutScratch(bgPatch)
	}
	raster.PutScratch(nativePatch)
	defer putPlane(diff)
	return oracleComponents(diff, tau)
}

// patchCases are the float pipeline's patch shapes: upsampled (608 from a
// 320-pixel corpus: bilinear resample), native, downsampled from 320 and
// from 640 (at 608, the near-identity box of the 640-pixel corpus's pixel
// axes, clean and blurred, where an object outside a patch spills into it),
// and the face model's border-difference patches.
var patchCases = []struct {
	name, corpus string
	view         scene.View
	model        func() *Model
	p            int
	bench        bool // also a BenchmarkPatchComponentsFloat shape
}{
	{"up608-from320", "small", scene.View{}, YOLOv4Sim, 608, true},
	{"native", "small", scene.View{}, YOLOv4Sim, 320, true},
	{"down160-from320", "small", scene.View{}, YOLOv4Sim, 160, false},
	{"down160-from640", "mvi-40775", scene.View{}, YOLOv4Sim, 160, true},
	{"down608-from640", "mvi-40775", scene.View{}, YOLOv4Sim, 608, true},
	{"blur9-down608-from640", "mvi-40775", scene.View{BlurLen: 9}, YOLOv4Sim, 608, false},
	{"faces320", "small", scene.View{}, MTCNNSim, 320, false},
}

// TestPatchComponentsFloatMatchesOracle compares the whole production patch
// evaluation — pooled scratch, fused noise+difference, fused back half —
// with the historical pipeline on real objects.
func TestPatchComponentsFloatMatchesOracle(t *testing.T) {
	for _, c := range patchCases {
		v := dataset.MustLoad(c.corpus).WithView(c.view)
		m := c.model()
		sx := float64(c.p) / float64(v.Config.Width)
		sy := float64(c.p) / float64(v.Config.Height)
		sigmaEff := effectiveNoise(float64(v.Config.Lighting.NoiseSigma), sx)
		tau := m.threshold(sigmaEff)
		objs := realObjects(v, m, 400, 300)
		if len(objs) == 0 {
			t.Fatalf("%s: no objects", c.name)
		}
		for _, fo := range objs {
			region := patchRegion(&v.Config, fo.obj, sx, sy)
			if region.Empty() {
				continue
			}
			tw, th := patchDims(region, sx, sy)
			want := patchComponentsFloatOracle(v, fo.frame, c.p, fo.obj, region, tw, th, sigmaEff, tau)
			got := m.patchComponentsFloat(v, fo.frame, c.p, fo.obj, region, tw, th, sigmaEff, tau)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s frame %d obj %d: got %+v, oracle %+v", c.name, fo.frame, fo.obj.ID, got, want)
			}
		}
	}
}

// fuzzPlane decodes fuzz input into a difference plane: one byte per
// sample, mapped onto [-1, 1).
func fuzzPlane(wRaw, hRaw uint8, data []byte) *plane {
	w, h := int(wRaw)%48+1, int(hRaw)%48+1
	p := &plane{w: w, h: h, v: make([]float32, w*h)}
	if len(data) == 0 {
		return p
	}
	for i := range p.v {
		p.v[i] = (float32(data[i%len(data)]) - 128) / 128
	}
	return p
}

// FuzzFloatComponents lets the fuzzer shape the difference plane and the
// threshold; the fused kernel must agree with the oracle triple exactly. The
// seed corpus is real patches — rendered, noised and differenced by the
// production pipeline — quantized to the fuzzer's byte encoding.
func FuzzFloatComponents(f *testing.F) {
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	for _, p := range []int{608, 160} {
		sx := float64(p) / float64(v.Config.Width)
		sigmaEff := effectiveNoise(float64(v.Config.Lighting.NoiseSigma), sx)
		for _, fo := range realObjects(v, m, 50, 3) {
			region := patchRegion(&v.Config, fo.obj, sx, sx)
			tw, th := patchDims(region, sx, sx)
			if tw > 48 || th > 48 {
				tw, th = 48, 48
			}
			patch := raster.Downsample(v.RenderRegion(fo.frame, region), tw, th)
			bg := raster.Downsample(v.BackgroundRegion(region), tw, th)
			data := make([]byte, tw*th)
			patch.NoisyDiffInto(patch.Pix, bg, noiseSeed(v.Config.Seed, fo.frame, p, fo.obj.ID), float32(sigmaEff))
			for i, d := range patch.Pix {
				data[i] = byte(int(d*128) + 128)
			}
			f.Add(uint8(tw-1), uint8(th-1), uint8(m.threshold(sigmaEff)*256), data)
		}
	}
	f.Add(uint8(0), uint8(0), uint8(10), []byte{255})
	f.Add(uint8(6), uint8(0), uint8(0), []byte{0, 255})
	f.Fuzz(func(t *testing.T, wRaw, hRaw, tauRaw uint8, data []byte) {
		requireSameComponents(t, "fuzz", fuzzPlane(wRaw, hRaw, data), float64(tauRaw)/256)
	})
}

// BenchmarkPatchComponentsFloat times one float patch evaluation per
// iteration over real objects, production kernel against the historical
// pipeline, on the three resample shapes the cold workloads hit.
func BenchmarkPatchComponentsFloat(b *testing.B) {
	for _, c := range patchCases {
		if !c.bench {
			continue
		}
		v := dataset.MustLoad(c.corpus).WithView(c.view)
		m := c.model()
		sx := float64(c.p) / float64(v.Config.Width)
		sy := float64(c.p) / float64(v.Config.Height)
		sigmaEff := effectiveNoise(float64(v.Config.Lighting.NoiseSigma), sx)
		tau := m.threshold(sigmaEff)
		objs := realObjects(v, m, 400, 64)
		run := func(name string, eval func(fo frameObject, region raster.Rect, tw, th int)) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fo := objs[i%len(objs)]
					region := patchRegion(&v.Config, fo.obj, sx, sy)
					tw, th := patchDims(region, sx, sy)
					eval(fo, region, tw, th)
				}
			})
		}
		run("kernel", func(fo frameObject, region raster.Rect, tw, th int) {
			m.patchComponentsFloat(v, fo.frame, c.p, fo.obj, region, tw, th, sigmaEff, tau)
		})
		run("oracle", func(fo frameObject, region raster.Rect, tw, th int) {
			patchComponentsFloatOracle(v, fo.frame, c.p, fo.obj, region, tw, th, sigmaEff, tau)
		})
	}
}

// BenchmarkFloatComponents isolates the back half on a patch-sized plane
// with a few blobs.
func BenchmarkFloatComponents(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := shapePlane(120, 80, func(x, y int) float32 {
		v := (rng.Float32()*2 - 1) * 0.02
		if (x/20+y/20)%3 == 0 {
			v += 0.3
		}
		return v
	})
	for _, k := range []struct {
		name string
		fn   func(*plane, float64) []component
	}{{"kernel", floatComponents}, {"oracle", oracleComponents}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(p, 0.04)
			}
		})
	}
}
