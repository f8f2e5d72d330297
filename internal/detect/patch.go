package detect

import (
	"fmt"
	"math"
	"sync"

	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// Detection is one object reported by a model on one frame. BBox is in
// model-input pixel coordinates (i.e. after resizing to p x p).
type Detection struct {
	Class      scene.Class
	BBox       raster.Rect
	Confidence float64
}

// candidate is an internal per-ground-truth-object detection result prior
// to merge/duplicate post-processing.
type candidate struct {
	objID    int
	class    scene.Class
	conf     float64
	blob     raster.Rect // model-input coordinates
	scaled   fRect       // the ground-truth bbox scaled to model pixels
	detected bool
}

// fRect is a float-precision rectangle used for sub-pixel merge geometry.
type fRect struct {
	minX, minY, maxX, maxY float64
}

func (r fRect) maxDim() float64 {
	return math.Max(r.maxX-r.minX, r.maxY-r.minY)
}

// chebyshevGap returns the Chebyshev distance between two rectangles,
// zero when they overlap.
func chebyshevGap(a, b fRect) float64 {
	gx := math.Max(0, math.Max(b.minX-a.maxX, a.minX-b.maxX))
	gy := math.Max(0, math.Max(b.minY-a.maxY, a.minY-b.maxY))
	return math.Max(gx, gy)
}

// DetectFrame runs the model on frame i of v at input resolution p using
// the production patch path and returns the reported detections. It panics
// if p is not a valid input resolution for the model (callers validate
// knobs up front; an invalid resolution is a programming error).
func (m *Model) DetectFrame(v *scene.Video, i, p int) []Detection {
	dets, _ := m.detectFrame(v, i, p, noStop)
	return dets
}

// ProbeFrame answers "does DetectFrame(v, i, p) report an object of class
// c?" — the boolean the paper's prior-information protocol needs — and
// stops at the first evidence that it does. complete reports whether the
// frame was evaluated to the end; dets is then exactly DetectFrame's
// result. A class the model cannot report is absent with no pixel work.
func (m *Model) ProbeFrame(v *scene.Video, i, p int, c scene.Class) (present bool, dets []Detection, complete bool) {
	if !m.CanDetect(c) {
		return false, nil, false
	}
	dets, complete = m.detectFrame(v, i, p, c)
	return !complete || CountClass(dets, c) > 0, dets, complete
}

// noStop is the stop class of a plain detection: no object, candidate or
// false positive carries it, so detectFrame never stops early.
const noStop = scene.Class(scene.NumClasses)

// detectFrame is the one detection body. It returns (nil, false) as soon
// as a detection of class stop is certain: a clutter false positive of that
// class (drawn first, it costs no pixels), or a candidate that passes the
// gates classified as stop — postProcess only merges within a class, so
// such a candidate always surfaces as at least one stop detection. Objects
// whose ground-truth class is stop are evaluated first because they are the
// likeliest to decide; every evaluation is a pure function of (frame,
// object, p), so when nothing decides, the candidates — kept in object
// order — are DetectFrame's, and so is everything after them.
func (m *Model) detectFrame(v *scene.Video, i, p int, stop scene.Class) ([]Detection, bool) {
	if !m.ValidResolution(p) {
		panic(fmt.Sprintf("detect: %s cannot run at resolution %d", m.Name, p))
	}
	countInvocation()
	cfg := &v.Config
	sx := float64(p) / float64(cfg.Width)
	sy := float64(p) / float64(cfg.Height)
	sigmaEff := effectiveNoise(float64(cfg.Lighting.NoiseSigma), sx)
	tau := m.threshold(sigmaEff)

	clutter := m.falsePositives(v, i, p, sigmaEff, tau)
	if CountClass(clutter, stop) > 0 {
		return nil, false
	}
	// One slot per object keeps the candidates in object order whatever
	// order they are evaluated in; a skipped object's zero slot is an
	// undetected candidate, which postProcess ignores.
	frame := v.Frame(i)
	cands := make([]candidate, len(frame.Objects))
	for _, first := range []bool{true, false} {
		for idx := range frame.Objects {
			obj := &frame.Objects[idx]
			// A class-restricted detector (MTCNN) does not respond to other
			// object kinds; its clutter behaviour is covered by the
			// false-positive process.
			if (obj.Class == stop) != first || !m.CanDetect(obj.Class) {
				continue
			}
			c := m.evalPatch(v, i, p, obj, sx, sy, sigmaEff, tau)
			if c.detected && c.class == stop {
				return nil, false
			}
			cands[idx] = c
		}
	}
	return append(m.postProcess(v, i, p, cands), clutter...), true
}

// effectiveNoise returns the sensor-noise sigma after box-filter
// downsampling by linear scale s: averaging 1/s^2 native pixels divides
// the standard deviation by 1/s. A small floor models quantisation noise.
func effectiveNoise(nativeSigma, s float64) float64 {
	sigma := nativeSigma * s
	if sigma < 0.004 {
		sigma = 0.004
	}
	return sigma
}

// threshold is the adaptive detection threshold applied to the denoised
// background difference: NSigma post-blur noise sigmas with an absolute
// contrast floor. The 3x3 denoising blur divides the noise sigma by 3.
func (m *Model) threshold(sigmaEff float64) float64 {
	tau := m.NSigma * sigmaEff / 3
	if tau < m.MinContrast {
		tau = m.MinContrast
	}
	return tau
}

// patchRegion returns the native-coordinate evaluation region of an
// object: its bbox grown by a margin of at least two model pixels on every
// side (so components can close around the object and the face path sees
// local context), clipped to the frame.
func patchRegion(cfg *scene.Config, obj *scene.Object, sx, sy float64) raster.Rect {
	marginX := int(math.Ceil(2/sx)) + 3
	marginY := int(math.Ceil(2/sy)) + 3
	return raster.Rect{
		MinX: obj.BBox.MinX - marginX,
		MinY: obj.BBox.MinY - marginY,
		MaxX: obj.BBox.MaxX + marginX,
		MaxY: obj.BBox.MaxY + marginY,
	}.Intersect(raster.RectWH(0, 0, cfg.Width, cfg.Height))
}

// patchDims returns the model-scale dimensions of a patch region.
func patchDims(region raster.Rect, sx, sy float64) (tw, th int) {
	tw = maxInt(3, int(math.Round(float64(region.W())*sx)))
	th = maxInt(3, int(math.Round(float64(region.H())*sy)))
	return tw, th
}

// evalPatch rasterises the object's local neighbourhood at native
// resolution, downsamples frame and static background to the model scale,
// adds effective sensor noise, and runs denoise + background-difference
// threshold + connected-components detection on the pixels.
//
// A patch too small to be reported is not evaluated: a component lies in
// the tw × th plane, sizeConf is nondecreasing in area and contrastConf ≤ 1
// (an IEEE product by a factor ≤ 1 never rounds above the other), so if the
// whole plane at infinite contrast falls short, selectCandidate reports none.
func (m *Model) evalPatch(v *scene.Video, frameIdx, p int, obj *scene.Object, sx, sy, sigmaEff, tau float64) candidate {
	cfg := &v.Config
	cand := candidate{
		objID: obj.ID,
		scaled: fRect{
			minX: float64(obj.BBox.MinX) * sx,
			minY: float64(obj.BBox.MinY) * sy,
			maxX: float64(obj.BBox.MaxX) * sx,
			maxY: float64(obj.BBox.MaxY) * sy,
		},
	}
	region := patchRegion(cfg, obj, sx, sy)
	if region.Empty() {
		return cand
	}
	tw, th := patchDims(region, sx, sy)
	if m.confidence(tw*th, math.Inf(1), tau) < m.Threshold {
		return cand
	}
	comps := m.patchComponentsFloat(v, frameIdx, p, obj, region, tw, th, sigmaEff, tau)
	m.selectCandidate(&cand, comps, obj, region, sx, sy, tau)
	return cand
}

// patchScratch is every buffer one float patch evaluation touches: the
// native-resolution render of a face patch, the model-scale patch, the
// model-scale static background patch and the signed difference plane. One
// pool round trip per patch replaces one per buffer; the fused back half
// keeps its own run-sized scratch (floatCCScratch) because the full-frame
// path shares it.
type patchScratch struct {
	native, patch, bg raster.Image
	diff              plane
}

var patchScratchPool = sync.Pool{New: func() any { return &patchScratch{} }}

func getPatchScratch() *patchScratch { return patchScratchPool.Get().(*patchScratch) }

func putPatchScratch(sc *patchScratch) { patchScratchPool.Put(sc) }

// patchComponentsFloat runs the pixel stages of evalPatch — render,
// downsample, sensor noise, background/border difference, 3x3 denoise,
// threshold, connected components — and returns the components.
func (m *Model) patchComponentsFloat(v *scene.Video, frameIdx, p int, obj *scene.Object, region raster.Rect, tw, th int, sigmaEff, tau float64) []component {
	sc := getPatchScratch()
	defer putPatchScratch(sc)
	patch := sc.patch.Resize(tw, th)
	seed, sigma := noiseSeed(v.Config.Seed, frameIdx, p, obj.ID), float32(sigmaEff)
	if obj.Class == scene.Face {
		// Faces sit inside person blobs, so static-background subtraction
		// cannot isolate them: a same-sign face (bright face on a body that
		// is itself brighter than the street) fuses with the body blob. A
		// face detector instead responds to the face's contrast against its
		// immediate surroundings — the border ring of the noised patch,
		// which is head/torso pixels.
		native := sc.native.Resize(region.W(), region.H())
		v.RenderRegionInto(native, frameIdx, region)
		raster.DownsampleInto(patch, native)
		patch.AddNoise(seed, sigma)
		sc.diff.setDiffScalar(patch, borderMean(patch))
	} else {
		// The background patch is resampled in place from the video's
		// background; the frame patch is that patch wherever no object's
		// render reaches, so only the object rows are rendered over it.
		bg := sc.bg.Resize(tw, th)
		raster.ResampleRegionInto(bg, v.Background(), region)
		copy(patch.Pix, bg.Pix)
		v.ResampleObjectRowsInto(patch, frameIdx, region)
		sc.diff.resize(tw, th)
		patch.NoisyDiffInto(sc.diff.v, bg, seed, sigma)
	}
	return floatComponents(&sc.diff, tau, raster.SIMD())
}

// selectCandidate picks the component that best explains the object and
// applies the area and confidence gates, filling cand.
func (m *Model) selectCandidate(cand *candidate, comps []component, obj *scene.Object, region raster.Rect, sx, sy, tau float64) {
	// Expected object bbox in patch coordinates.
	expected := raster.Rect{
		MinX: int(math.Floor((float64(obj.BBox.MinX) - float64(region.MinX)) * sx)),
		MinY: int(math.Floor((float64(obj.BBox.MinY) - float64(region.MinY)) * sy)),
		MaxX: int(math.Ceil((float64(obj.BBox.MaxX) - float64(region.MinX)) * sx)),
		MaxY: int(math.Ceil((float64(obj.BBox.MaxY) - float64(region.MinY)) * sy)),
	}
	// Select the component that best explains the object: the one with the
	// largest absolute intersection with the expected box. A containment
	// guard rejects incidental touches (a neighbouring blob grazing the
	// expected box) without letting tiny noise specks with perfect
	// containment outrank the real blob.
	best := -1
	bestInter := 0
	for ci := range comps {
		inter := comps[ci].BBox.Intersect(expected).Area()
		if inter <= bestInter {
			continue
		}
		mostlyExplains := inter*5 >= expected.Area()
		mostlyInside := inter*2 >= comps[ci].BBox.Area()
		if mostlyExplains || mostlyInside {
			bestInter = inter
			best = ci
		}
	}
	if best < 0 {
		return
	}
	comp := &comps[best]
	if comp.Area < m.MinBlobArea {
		return
	}
	conf := m.confidence(comp.Area, comp.MeanContrast(), tau)
	if conf < m.Threshold {
		return
	}
	// Translate the blob back into model-input coordinates.
	offX := int(math.Round(float64(region.MinX) * sx))
	offY := int(math.Round(float64(region.MinY) * sy))
	blob := raster.Rect{
		MinX: comp.BBox.MinX + offX,
		MinY: comp.BBox.MinY + offY,
		MaxX: comp.BBox.MaxX + offX,
		MaxY: comp.BBox.MaxY + offY,
	}
	cand.detected = true
	cand.conf = conf
	cand.blob = blob
	cand.class = m.classify(blob, comp.Area)
}

// borderMean estimates the local surroundings of a patch as the mean of
// its outermost ring of pixels; for a face patch the ring is mostly
// head/torso pixels of the enclosing person.
func borderMean(img *raster.Image) float32 {
	var sum float64
	var n int
	for x := 0; x < img.W; x++ {
		sum += float64(img.At(x, 0)) + float64(img.At(x, img.H-1))
		n += 2
	}
	for y := 1; y < img.H-1; y++ {
		sum += float64(img.At(0, y)) + float64(img.At(img.W-1, y))
		n += 2
	}
	return float32(sum / float64(n))
}

// classify assigns a class to a blob. Single-class detectors (MTCNN)
// report their target class directly — a face-specific network does not
// mistake its response for a car; multi-class detectors classify from
// blob geometry.
func (m *Model) classify(b raster.Rect, area int) scene.Class {
	if len(m.TargetClasses) == 1 {
		return m.TargetClasses[0]
	}
	return classifyBlob(b, area)
}

// postProcess fuses detections that would form a single blob at the model
// scale (undercounting dense traffic at low resolution) and applies the
// one-stage duplicate resonance (overcounting at the resonant input size).
func (m *Model) postProcess(v *scene.Video, frameIdx, p int, cands []candidate) []Detection {
	detected := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].detected && m.CanDetect(cands[i].class) {
			detected = append(detected, i)
		}
	}
	// Union-find over detected candidates: same class within MergeGap.
	parent := make([]int, len(detected))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for a := 0; a < len(detected); a++ {
		for b := a + 1; b < len(detected); b++ {
			ca, cb := &cands[detected[a]], &cands[detected[b]]
			if ca.class != cb.class {
				continue
			}
			if chebyshevGap(ca.scaled, cb.scaled) <= m.MergeGap {
				parent[find(a)] = find(b)
			}
		}
	}
	groups := make([][]int, len(detected)) // indexed by root
	for i := range detected {
		root := find(i)
		groups[root] = append(groups[root], detected[i])
	}

	// Groups are emitted in the order of their first member, so ties on
	// sortDetections' key keep a fixed order from run to run.
	var out []Detection
	for i := range detected {
		members := groups[find(i)]
		if members[0] != detected[i] {
			continue
		}
		box := cands[members[0]].blob
		conf := cands[members[0]].conf
		for _, mi := range members[1:] {
			box = box.Union(cands[mi].blob)
			if cands[mi].conf > conf {
				conf = cands[mi].conf
			}
		}
		class := cands[members[0]].class
		out = append(out, Detection{Class: class, BBox: box, Confidence: conf})

		// Duplicate resonance applies to isolated objects whose scale sits
		// in the model's confusion band.
		if len(members) == 1 {
			c := &cands[members[0]]
			prob := m.dupProbability(v, p, c.scaled.maxDim())
			if prob > 0 && hash01(dupSeed(v.Config.Seed, frameIdx, p, c.objID)) < prob {
				out = append(out, Detection{Class: class, BBox: box, Confidence: conf * 0.92})
			}
		}
	}
	sortDetections(out)
	return out
}

// falsePositives models clutter detections. The full-frame reference path
// produces these organically when noise crosses the threshold and survives
// the confidence gate; the patch path samples a Poisson process whose rate
// scales with the scanned pixel count and the per-pixel probability of the
// denoised noise exceeding the threshold, seeded per (frame, resolution).
func (m *Model) falsePositives(v *scene.Video, frameIdx, p int, sigmaEff, tau float64) []Detection {
	sigmaBlur := sigmaEff / 3
	// Two-sided tail of the post-blur noise against the threshold.
	z := tau / sigmaBlur
	exceed := math.Erfc(z / math.Sqrt2)
	scale := float64(p) / float64(m.NativeInput)
	lambda := m.FPRate * scale * scale * exceed * 50
	if lambda <= 0 {
		return nil
	}
	stream := fpStream(v.Config.Seed, frameIdx, p)
	n := stream.Poisson(lambda)
	if n == 0 {
		return nil
	}
	out := make([]Detection, 0, n)
	for k := 0; k < n; k++ {
		w := 2 + stream.Intn(4)
		h := 2 + stream.Intn(4)
		x := stream.Intn(maxInt(1, p-w))
		y := stream.Intn(maxInt(1, p-h))
		class := scene.Car
		if len(m.TargetClasses) > 0 {
			class = m.TargetClasses[stream.Intn(len(m.TargetClasses))]
		} else if stream.Bernoulli(0.3) {
			class = scene.Person
		}
		out = append(out, Detection{
			Class:      class,
			BBox:       raster.RectWH(x, y, w, h),
			Confidence: m.Threshold + 0.15*stream.Float64(),
		})
	}
	return out
}

// classifyBlob assigns a class from blob geometry: cars are wide and boxy,
// persons are tall and rounded, faces are tiny. The fill ratio (mask pixels
// over bounding-box pixels) separates solid vehicle slivers entering the
// frame (fill ~1) from elliptical person bodies (fill ~pi/4), which pure
// aspect rules confuse. Quantisation at low resolution distorts both cues,
// which is how misclassification emerges.
func classifyBlob(b raster.Rect, area int) scene.Class {
	w, h := float64(b.W()), float64(b.H())
	if h == 0 || w == 0 {
		return scene.Car
	}
	aspect := w / h
	maxDim := math.Max(w, h)
	fill := float64(area) / float64(b.Area())
	switch {
	case aspect >= 1.25:
		return scene.Car
	case aspect <= 0.8:
		if fill >= 0.85 {
			return scene.Car // solid box sliver: a partially visible vehicle
		}
		return scene.Person
	case maxDim <= 5:
		return scene.Face
	case fill >= 0.85 || area >= 25:
		return scene.Car
	default:
		return scene.Person
	}
}

func sortDetections(ds []Detection) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && lessDetection(&ds[j], &ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func lessDetection(a, b *Detection) bool {
	if a.BBox.MinY != b.BBox.MinY {
		return a.BBox.MinY < b.BBox.MinY
	}
	if a.BBox.MinX != b.BBox.MinX {
		return a.BBox.MinX < b.BBox.MinX
	}
	return a.Class < b.Class
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
