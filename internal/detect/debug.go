package detect

import (
	"fmt"
	"math"

	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// DebugEval exposes per-object candidate evaluation for calibration
// debugging. Not part of the public surface.
func DebugEval(m *Model, v *scene.Video, i, p int) []string {
	cfg := &v.Config
	sx := float64(p) / float64(cfg.Width)
	sy := float64(p) / float64(cfg.Height)
	sigmaEff := effectiveNoise(float64(cfg.Lighting.NoiseSigma), sx)
	tau := m.threshold(sigmaEff)
	var out []string
	frame := v.Frame(i)
	for idx := range frame.Objects {
		obj := &frame.Objects[idx]
		c := m.evalPatch(v, i, p, obj, sx, sy, sigmaEff, tau)
		out = append(out, fmt.Sprintf("obj %v bbox=%v int=%.2f -> detected=%v class=%v conf=%.3f blob=%v tau=%.4f",
			obj.Class, obj.BBox, obj.Intensity, c.detected, c.class, c.conf, c.blob, tau))
		out = append(out, debugComponents(m, v, i, p, obj, sx, sy, sigmaEff, tau)...)
	}
	return out
}

// debugComponents re-runs the patch pipeline and dumps every
// component.
func debugComponents(m *Model, v *scene.Video, frameIdx, p int, obj *scene.Object, sx, sy, sigmaEff, tau float64) []string {
	region := patchRegion(&v.Config, obj, sx, sy)
	if region.Empty() {
		return nil
	}
	tw, th := patchDims(region, sx, sy)
	comps := m.patchComponentsFloat(v, frameIdx, p, obj, region, tw, th, sigmaEff, tau)
	expected := raster.Rect{
		MinX: int(math.Floor((float64(obj.BBox.MinX) - float64(region.MinX)) * sx)),
		MinY: int(math.Floor((float64(obj.BBox.MinY) - float64(region.MinY)) * sy)),
		MaxX: int(math.Ceil((float64(obj.BBox.MaxX) - float64(region.MinX)) * sx)),
		MaxY: int(math.Ceil((float64(obj.BBox.MaxY) - float64(region.MinY)) * sy)),
	}
	out := []string{fmt.Sprintf("   region=%v tw=%d th=%d ncomps=%d expected=%v", region, tw, th, len(comps), expected)}
	for _, c := range comps {
		if c.Area < 3 {
			continue
		}
		out = append(out, fmt.Sprintf("   comp bbox=%v area=%d meanC=%.3f inter=%d", c.BBox, c.Area, c.MeanContrast(), c.BBox.Intersect(expected).Area()))
	}
	return out
}
