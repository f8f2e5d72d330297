package detect

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// Temporal delta detection. A DeltaRun walks the frames of one degraded
// view in order and exploits the fact that a surveillance scene changes
// slowly: most objects persist across frames, and the static background
// is bitwise constant. The frame is partitioned into DeltaTileSize-square
// tiles; each frame gets a per-tile signature mixing in every object
// whose bbox spans the tile, in draw order. Each cached evaluation stores
// the signatures its patch region spanned when it was validated; equality
// against the current frame's tiles proves pixel-identical scene content
// (up to a 2^-64 hash collision) between the two frames directly, however
// far apart they are — frame rendering depends only on the static
// background and the objects spanning the tile, drawn in a (MinY,
// ID)-sorted order that unchanged objects preserve. Sampled (gappy) frame
// feeds therefore reuse as well as full series.
//
// Exact mode re-runs only the noise-dependent stages for an object whose
// patch region covers only clean tiles, replaying cached pre-noise pixels
// with the current frame's noise seed — byte-identical to full evaluation
// because sensor noise is the only frame-indexed input after rendering.
// Bounded mode goes further: an object that merely translated
// horizontally keeps a position-independent foreground (objects render
// opaque), so the patch difference changes only through background
// texture, lane markings, and the noise resample. When the worst-case
// mean-contrast perturbation B is within the configured tolerance and the
// cached detection outcome survives a B-sized shove of the confidence
// gate, the prior candidate is spliced at the new position without
// touching a pixel. Bounded entries keep their pre-noise pixels too, so
// an object that did not move but fails a splice gate falls back to the
// exact replay path (byte-identical, no err_b surcharge) instead of a
// full evaluation. Frames where a splice margin ran thin are counted and
// surfaced through DeltaSurcharge into the profile's err_b accounting.

// DeltaTileSize is the side of the square change-tracking tiles.
const DeltaTileSize = 32

// tileSigSeed initialises every tile signature so an empty tile has a
// well-defined, non-zero value.
const tileSigSeed = 0x9e3779b97f4a7c15

// Package-level effectiveness counters, flushed from runs on Close.
var (
	deltaTilesReused      atomic.Int64
	deltaTilesRedetected  atomic.Int64
	deltaCandidatesReused atomic.Int64
	deltaKeyframes        atomic.Int64
)

// DeltaCounterStats is a snapshot of delta-detection effectiveness.
type DeltaCounterStats struct {
	TilesReused      int64 // tiles spanned by reused (spliced/replayed) patches
	TilesRedetected  int64 // tiles spanned by fully re-evaluated patches
	CandidatesReused int64 // object evaluations answered without a full eval
	Keyframes        int64 // frames evaluated with no usable predecessor
}

// DeltaCounters returns the cumulative delta-detection counters.
func DeltaCounters() DeltaCounterStats {
	return DeltaCounterStats{
		TilesReused:      deltaTilesReused.Load(),
		TilesRedetected:  deltaTilesRedetected.Load(),
		CandidatesReused: deltaCandidatesReused.Load(),
		Keyframes:        deltaKeyframes.Load(),
	}
}

// deltaKey identifies one (video view, model, resolution) bounded-mode
// account, mirroring the granularity of the detector-output cache.
type deltaKey struct {
	video *scene.Video
	model string
	p     int
}

// deltaAccount tallies how many frames bounded mode processed for a key
// and how many of them leaned on a thin reuse margin.
type deltaAccount struct {
	frames  int64
	fragile int64
}

var (
	deltaAccMu    sync.Mutex
	deltaAccounts = map[deltaKey]*deltaAccount{}
)

// resetDelta zeroes the counters and drops every bounded-mode account.
func resetDelta() {
	deltaTilesReused.Store(0)
	deltaTilesRedetected.Store(0)
	deltaCandidatesReused.Store(0)
	deltaKeyframes.Store(0)
	deltaAccMu.Lock()
	deltaAccounts = map[deltaKey]*deltaAccount{}
	deltaAccMu.Unlock()
}

// deltaAccountEntrySize approximates the bookkeeping bytes of one
// bounded-mode account (key + two counters + map overhead).
const deltaAccountEntrySize = perEntryOverhead + 16

// evictDeltaAccounts drops the bounded-mode accounts of video v (all
// videos when v is nil) and returns the bytes released.
func evictDeltaAccounts(v *scene.Video) int64 {
	deltaAccMu.Lock()
	defer deltaAccMu.Unlock()
	var freed int64
	for k := range deltaAccounts {
		if v == nil || k.video == v {
			delete(deltaAccounts, k)
			freed += deltaAccountEntrySize
		}
	}
	return freed
}

// deltaAccountStats reports the live bounded-mode account table size.
func deltaAccountStats() (tables int, bytes int64) {
	deltaAccMu.Lock()
	defer deltaAccMu.Unlock()
	return len(deltaAccounts), int64(len(deltaAccounts)) * deltaAccountEntrySize
}

// DeltaSurcharge returns the fraction of bounded-mode frames for (v,
// model, p) whose reuse decisions leaned on a thin margin — the err_b
// surcharge the profile layer adds to its error bound when bounded delta
// detection produced the detector outputs. Zero when bounded mode never
// ran for the key.
func DeltaSurcharge(v *scene.Video, model string, p int) float64 {
	deltaAccMu.Lock()
	defer deltaAccMu.Unlock()
	a := deltaAccounts[deltaKey{video: v, model: model, p: p}]
	if a == nil || a.frames == 0 {
		return 0
	}
	return float64(a.fragile) / float64(a.frames)
}

// objectSig hashes everything that affects an object's rendered pixels.
func objectSig(o *scene.Object) uint64 {
	ell := uint64(0)
	if o.Elliptic {
		ell = 1
	}
	return mix(
		uint64(o.ID),
		uint64(o.Class)|ell<<8,
		uint64(uint32(o.BBox.MinX))<<32|uint64(uint32(o.BBox.MinY)),
		uint64(uint32(o.BBox.MaxX))<<32|uint64(uint32(o.BBox.MaxY)),
		uint64(math.Float32bits(o.Intensity)),
	)
}

// frameTileSigs fills dst with per-tile signatures of the frame: the seed
// value mixed, in stored (draw) order, with the signature of every object
// whose bbox spans the tile. Objects fully outside the frame contribute
// nothing, matching the renderer's clipping. spill dilates each bbox
// horizontally by the video view's pixel reach (motion blur smears an
// object's contrast up to that many columns beyond its bbox), so tiles
// whose pixels a view transform can touch are attributed to the object.
func frameTileSigs(dst []uint64, f *scene.Frame, tilesW int, w, h, spill int) {
	for i := range dst {
		dst[i] = tileSigSeed
	}
	frameRect := raster.RectWH(0, 0, w, h)
	for idx := range f.Objects {
		o := &f.Objects[idx]
		box := o.BBox
		box.MinX -= spill
		box.MaxX += spill
		box = box.Intersect(frameRect)
		if box.Empty() {
			continue
		}
		sig := objectSig(o)
		tx0 := box.MinX / DeltaTileSize
		tx1 := (box.MaxX - 1) / DeltaTileSize
		ty0 := box.MinY / DeltaTileSize
		ty1 := (box.MaxY - 1) / DeltaTileSize
		for ty := ty0; ty <= ty1; ty++ {
			row := ty * tilesW
			for tx := tx0; tx <= tx1; tx++ {
				dst[row+tx] = mix(dst[row+tx], sig)
			}
		}
	}
}

// deltaEntry caches one object's last evaluation for reuse on a later
// frame. regionSigs snapshots the tile signatures the region spanned when
// the entry was validated: signature equality against any later frame's
// tiles proves the region's scene content is pixel-identical, so reuse is
// not limited to consecutive frames — sampled (gappy) frame feeds reuse
// just as well as full series.
type deltaEntry struct {
	frame      int          // frame the entry was last validated on
	obj        scene.Object // object state at that frame
	region     raster.Rect  // evaluated patch region
	regionSigs []uint64     // region's tile signatures at that frame
	interior   bool         // region carries its full margins (no frame clip)
	isolated   bool         // no other object's bbox intersected the region
	quant      bool         // evaluated on the quantized pipeline
	cand       candidate
	info       patchInfo
	kept       keptPatches // pre-noise pixels (exact mode only)
}

// DeltaRun evaluates consecutive frames of one (video, model, resolution)
// triple with temporal delta detection. It is single-goroutine state;
// callers wanting parallelism run one DeltaRun per frame block.
type DeltaRun struct {
	m    *Model
	v    *scene.Video
	p    int
	mode DeltaMode
	tol  float64

	sx, sy   float64
	sigmaEff float64
	tau      float64

	// spill is the video view's horizontal pixel reach (blur smear);
	// viewPixels records whether the view transforms pixels at all, which
	// disables bounded translation splices (their background-delta model
	// assumes raw pixels).
	spill      int
	viewPixels bool

	tilesW    int
	prevFrame int
	curSigs   []uint64
	entries   map[int]*deltaEntry

	tilesReused     int64
	tilesRedetected int64
	candsReused     int64
	framesProcessed int64
	fragileFrames   int64
	keyframes       int64
}

// NewDeltaRun returns a DeltaRun for v at resolution p, or nil when delta
// detection is off (callers fall back to DetectFrame). Panics on an
// invalid resolution, like DetectFrame.
func (m *Model) NewDeltaRun(v *scene.Video, p int) *DeltaRun {
	mode := DeltaDetectMode()
	if mode == DeltaOff {
		return nil
	}
	if !m.ValidResolution(p) {
		panic(fmt.Sprintf("detect: %s cannot run at resolution %d", m.Name, p))
	}
	cfg := &v.Config
	sx := float64(p) / float64(cfg.Width)
	sy := float64(p) / float64(cfg.Height)
	sigmaEff := effectiveNoise(float64(cfg.Lighting.NoiseSigma), sx)
	tilesW := (cfg.Width + DeltaTileSize - 1) / DeltaTileSize
	tilesH := (cfg.Height + DeltaTileSize - 1) / DeltaTileSize
	vw := v.View()
	return &DeltaRun{
		m:          m,
		v:          v,
		p:          p,
		mode:       mode,
		tol:        DeltaTolerance(),
		sx:         sx,
		sy:         sy,
		sigmaEff:   sigmaEff,
		tau:        m.threshold(sigmaEff),
		spill:      vw.Spill(),
		viewPixels: vw.PixelTransforms(),
		tilesW:     tilesW,
		prevFrame:  -1,
		curSigs:    make([]uint64, tilesW*tilesH),
		entries:    map[int]*deltaEntry{},
	}
}

// DetectFrame runs the model on frame i, reusing prior work where the
// delta mode admits it. Reuse is validated against the entry's stored
// region tile signatures, which prove pixel-identical scene content
// between the entry's frame and frame i directly — so sampled (gappy)
// frame feeds reuse as well as consecutive ones; non-consecutive jumps
// are only counted as keyframes for observability. Entries persist for
// the life of the run (objects that left the scene keep a small entry
// until Close releases them).
func (r *DeltaRun) DetectFrame(i int) []Detection {
	countInvocation()
	m, v := r.m, r.v
	cfg := &v.Config
	frame := v.Frame(i)

	frameTileSigs(r.curSigs, frame, r.tilesW, cfg.Width, cfg.Height, r.spill)
	if !(r.prevFrame >= 0 && i == r.prevFrame+1) {
		r.keyframes++
	}

	quant := Quantized()
	fragile := false
	cands := make([]candidate, 0, len(frame.Objects))
	for idx := range frame.Objects {
		obj := &frame.Objects[idx]
		if !m.CanDetect(obj.Class) {
			continue
		}
		c, ok := r.tryReuse(i, frame, obj, quant, &fragile)
		if !ok {
			c = r.evalAndStore(i, frame, obj, quant)
		}
		cands = append(cands, c)
	}

	r.prevFrame = i
	r.framesProcessed++
	if fragile {
		r.fragileFrames++
	}

	detections := m.postProcess(v, i, r.p, cands)
	detections = append(detections, m.falsePositives(v, i, r.p, r.sigmaEff, r.tau)...)
	return detections
}

// Close flushes the run's counters into the package totals (and, in
// bounded mode, the per-key fragility account) and releases cached pixels.
func (r *DeltaRun) Close() {
	if r == nil {
		return
	}
	deltaTilesReused.Add(r.tilesReused)
	deltaTilesRedetected.Add(r.tilesRedetected)
	deltaCandidatesReused.Add(r.candsReused)
	deltaKeyframes.Add(r.keyframes)
	if r.mode == DeltaBounded && r.framesProcessed > 0 {
		k := deltaKey{video: r.v, model: r.m.Name, p: r.p}
		deltaAccMu.Lock()
		a := deltaAccounts[k]
		if a == nil {
			a = &deltaAccount{}
			deltaAccounts[k] = a
		}
		a.frames += r.framesProcessed
		a.fragile += r.fragileFrames
		deltaAccMu.Unlock()
	}
	r.dropEntries()
	r.entries = nil
}

func (r *DeltaRun) dropEntries() {
	for id, e := range r.entries {
		e.kept.release()
		delete(r.entries, id)
	}
}

// tileSpan returns the number of tiles a (clipped, non-empty) region
// touches.
func tileSpan(region raster.Rect) int64 {
	if region.Empty() {
		return 0
	}
	nx := (region.MaxX-1)/DeltaTileSize - region.MinX/DeltaTileSize + 1
	ny := (region.MaxY-1)/DeltaTileSize - region.MinY/DeltaTileSize + 1
	return int64(nx * ny)
}

// regionSigsMatch reports whether the entry's stored tile signatures for
// region equal the current frame's — i.e. the region's scene content is
// pixel-identical to what the entry was validated on.
func (r *DeltaRun) regionSigsMatch(e *deltaEntry, region raster.Rect) bool {
	if region.Empty() || len(e.regionSigs) == 0 {
		return false
	}
	tx0 := region.MinX / DeltaTileSize
	tx1 := (region.MaxX - 1) / DeltaTileSize
	ty0 := region.MinY / DeltaTileSize
	ty1 := (region.MaxY - 1) / DeltaTileSize
	k := 0
	for ty := ty0; ty <= ty1; ty++ {
		row := ty * r.tilesW
		for tx := tx0; tx <= tx1; tx++ {
			if k >= len(e.regionSigs) || e.regionSigs[k] != r.curSigs[row+tx] {
				return false
			}
			k++
		}
	}
	return k == len(e.regionSigs)
}

// captureRegionSigs snapshots the current frame's tile signatures under
// region into the entry, reusing its slice storage.
func (r *DeltaRun) captureRegionSigs(e *deltaEntry, region raster.Rect) {
	e.regionSigs = e.regionSigs[:0]
	if region.Empty() {
		return
	}
	tx0 := region.MinX / DeltaTileSize
	tx1 := (region.MaxX - 1) / DeltaTileSize
	ty0 := region.MinY / DeltaTileSize
	ty1 := (region.MaxY - 1) / DeltaTileSize
	for ty := ty0; ty <= ty1; ty++ {
		row := ty * r.tilesW
		for tx := tx0; tx <= tx1; tx++ {
			e.regionSigs = append(e.regionSigs, r.curSigs[row+tx])
		}
	}
}

// isolatedIn reports whether no other object's bbox intersects region.
func isolatedIn(frame *scene.Frame, obj *scene.Object, region raster.Rect) bool {
	for idx := range frame.Objects {
		o := &frame.Objects[idx]
		if o.ID == obj.ID {
			continue
		}
		if !o.BBox.Intersect(region).Empty() {
			return false
		}
	}
	return true
}

// markingFraction returns the worst-case fraction of the object footprint
// covered by lane-marking rows, or 0 when the footprint's row range clears
// every marking stripe.
func markingFraction(cfg *scene.Config, box raster.Rect) float64 {
	hit := false
	for _, lane := range cfg.LaneYs {
		y := lane + 18
		if y >= cfg.Height-1 {
			continue
		}
		if box.MinY < y+2 && box.MaxY > y {
			hit = true
			break
		}
	}
	if !hit {
		return 0
	}
	h := box.H()
	if h < 1 {
		h = 1
	}
	frac := 2.0 / float64(h)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// evalAndStore fully evaluates obj on frame i and caches the result (plus,
// in exact mode, the pre-noise pixels) for next-frame reuse.
func (r *DeltaRun) evalAndStore(i int, frame *scene.Frame, obj *scene.Object, quant bool) candidate {
	e := r.entries[obj.ID]
	if e == nil {
		e = &deltaEntry{}
		r.entries[obj.ID] = e
	} else {
		e.kept.release()
	}
	// Both modes keep the pre-noise pixels: exact mode replays them on
	// every clean frame, and bounded mode replays them when a still
	// object's splice gates fail (small components leave no confidence
	// headroom, common at low resolutions) — the replay is byte-identical
	// to a full evaluation at a fraction of its cost, so it never touches
	// the err_b account.
	var info patchInfo
	cand := r.m.evalPatchInfo(r.v, i, r.p, obj, r.sx, r.sy, r.sigmaEff, r.tau, &info, &e.kept)
	mx, my := patchMargins(r.sx, r.sy)
	e.frame = i
	e.obj = *obj
	e.region = info.region
	r.captureRegionSigs(e, info.region)
	e.interior = info.region.W() == obj.BBox.W()+2*mx && info.region.H() == obj.BBox.H()+2*my
	e.isolated = isolatedIn(frame, obj, info.region)
	e.quant = quant
	e.cand = cand
	e.info = info
	r.tilesRedetected += tileSpan(info.region)
	return cand
}

// tryReuse attempts to answer obj on frame i from its cached entry (any
// prior frame — signature equality, not adjacency, validates reuse). The
// bool result is false when a full evaluation is required.
func (r *DeltaRun) tryReuse(i int, frame *scene.Frame, obj *scene.Object, quant bool, fragile *bool) (candidate, bool) {
	e := r.entries[obj.ID]
	if e == nil || e.frame == i || e.quant != quant {
		return candidate{}, false
	}
	region := patchRegion(&r.v.Config, obj, r.sx, r.sy)
	if region.Empty() {
		return candidate{}, false
	}
	still := e.obj == *obj && region == e.region && r.regionSigsMatch(e, region)
	if r.mode == DeltaExact {
		if !still || !e.kept.usable(quant, obj.Class == scene.Face) {
			return candidate{}, false
		}
		return r.exactReuse(i, frame, obj, e, region), true
	}
	c, ok := r.boundedReuse(i, frame, obj, e, region, still, fragile)
	if ok || !still {
		return c, ok
	}
	// Still object whose splice gates failed: the cached pre-noise pixels
	// are provably identical to what a full evaluation would render, so
	// replay them exactly instead — byte-identical to DetectFrame and far
	// cheaper than re-rendering, with no tolerance spent.
	if e.kept.usable(quant, obj.Class == scene.Face) {
		return r.exactReuse(i, frame, obj, e, region), true
	}
	return candidate{}, false
}

// usable reports whether the kept pre-noise pixels cover a replay on the
// given pipeline.
func (k *keptPatches) usable(quant, face bool) bool {
	if quant {
		return k.patch8 != nil && (face || k.bg8 != nil)
	}
	return k.patchF != nil && (face || k.bgF != nil)
}

// exactReuse replays the noise-dependent pipeline stages over the cached
// pre-noise patch with frame i's noise seed. Because every tile the region
// touches is clean and the object is unchanged, the pre-noise pixels are
// identical to what a full evaluation would render, so the result is
// byte-identical to DetectFrame's.
func (r *DeltaRun) exactReuse(i int, frame *scene.Frame, obj *scene.Object, e *deltaEntry, region raster.Rect) candidate {
	m := r.m
	cand := candidate{
		objID: obj.ID,
		scaled: fRect{
			minX: float64(obj.BBox.MinX) * r.sx,
			minY: float64(obj.BBox.MinY) * r.sy,
			maxX: float64(obj.BBox.MaxX) * r.sx,
			maxY: float64(obj.BBox.MaxY) * r.sy,
		},
	}
	seed := noiseSeed(r.v.Config.Seed, i, r.p, obj.ID)
	var comps []component
	var maxAbs float64
	if e.quant {
		tw, th := patchDims(region, r.sx, r.sy)
		patch := raster.GetScratch8(tw, th)
		copy(patch.Pix, e.kept.patch8.Pix)
		patch.AddNoise8(seed, float32(r.sigmaEff))
		var diff *plane16
		if obj.Class == scene.Face {
			diff = diffScalar8(patch, borderMean8(patch))
		} else {
			diff = diffPlanes8(patch, e.kept.bg8)
		}
		raster.PutScratch8(patch)
		comps, maxAbs = quantComponents(diff, r.tau, true)
		putPlane16(diff)
	} else {
		var bg *raster.Image
		if obj.Class != scene.Face {
			bg = e.kept.bgF
		}
		sc := getPatchScratch()
		comps, maxAbs = sc.noisedComponents(e.kept.patchF, bg, seed, float32(r.sigmaEff), r.tau, true)
		putPatchScratch(sc)
	}
	var info patchInfo
	info.region = region
	info.maxAbs = maxAbs
	m.selectCandidate(&cand, comps, obj, region, r.sx, r.sy, r.tau, &info)

	e.frame = i
	e.obj = *obj
	e.isolated = isolatedIn(frame, obj, region)
	e.cand = cand
	e.info = info
	r.tilesReused += tileSpan(region)
	r.candsReused++
	return cand
}

// deltaFragileMargin is the confidence headroom below which a bounded
// splice counts the frame as fragile for err_b accounting.
const deltaFragileMargin = 0.05

// boundedReuse splices the cached detection outcome at the object's new
// position when the worst-case contrast perturbation since the cached
// evaluation is within tolerance AND the cached outcome survives shoving
// the confidence gate by that perturbation. still=true means the object
// and its pixel context are bitwise unchanged, so only the noise resample
// perturbs the result.
func (r *DeltaRun) boundedReuse(i int, frame *scene.Frame, obj *scene.Object, e *deltaEntry, region raster.Rect, still bool, fragile *bool) (candidate, bool) {
	m := r.m
	cfg := &r.v.Config
	info := &e.info

	texAmp := float64(cfg.Lighting.TextureAmp)
	var bMean, bPix float64
	if still {
		bMean = 0
		bPix = 2 * r.sigmaEff
	} else {
		// Translation splices model the patch delta as "same object over
		// shifted raw background". A pixel-transforming view breaks that
		// model — blur mixes object and background, occlusion pins pixels,
		// quantization is non-linear in position — so only still (bitwise
		// identical, which deterministic transforms preserve) reuse is
		// admissible under such views.
		if r.viewPixels {
			return candidate{}, false
		}
		// Horizontal translation: the opaque foreground is
		// position-independent, so only the background under the footprint
		// changes — texture (±TextureAmp per pixel), lane markings where
		// the footprint rows cross a stripe — plus the noise resample.
		// Faces use a border-relative difference whose ring is body pixels
		// at an unmodelled offset; never splice them.
		if obj.Class == scene.Face ||
			obj.ID != e.obj.ID || obj.Class != e.obj.Class ||
			obj.Elliptic != e.obj.Elliptic || obj.Intensity != e.obj.Intensity ||
			obj.BBox.W() != e.obj.BBox.W() || obj.BBox.H() != e.obj.BBox.H() ||
			obj.BBox.MinY != e.obj.BBox.MinY {
			return candidate{}, false
		}
		// Both evaluations must see the object with full margins and no
		// neighbours, so the patch is exactly "object over background".
		mx, my := patchMargins(r.sx, r.sy)
		interior := region.W() == obj.BBox.W()+2*mx && region.H() == obj.BBox.H()+2*my
		if !interior || !e.interior || !e.isolated || !isolatedIn(frame, obj, region) {
			return candidate{}, false
		}
		bMean = 2*texAmp + 0.12*markingFraction(cfg, obj.BBox)
		mark := 0.0
		if markingFraction(cfg, obj.BBox) > 0 {
			mark = 0.12
		}
		bPix = 2*texAmp + mark + 2*r.sigmaEff
	}
	// Noise resample perturbation of the component mean: the blurred noise
	// contribution averages down with component area.
	area := info.compArea
	if area < 1 {
		area = 1
	}
	bMean += 1.5 * r.sigmaEff / math.Sqrt(float64(area))
	if bMean > r.tol {
		return candidate{}, false
	}

	// Outcome gates: the cached decision must survive a B-sized shove.
	switch {
	case e.cand.detected && info.confValid:
		lo := m.confidence(info.compArea, info.meanContrast-bMean, r.tau)
		if lo < m.Threshold {
			return candidate{}, false
		}
		if lo-m.Threshold < deltaFragileMargin {
			*fragile = true
		}
	case !e.cand.detected && info.hasComp && info.confValid:
		hi := m.confidence(info.compArea, info.meanContrast+bMean, r.tau)
		if hi >= m.Threshold {
			return candidate{}, false
		}
		if m.Threshold-hi < deltaFragileMargin {
			*fragile = true
		}
	case !e.cand.detected && !info.hasComp:
		// Blank patch: nothing crossed the threshold anywhere. Require the
		// peak contrast plus the worst-case per-pixel perturbation to stay
		// under tau.
		if info.maxAbs+bPix >= r.tau {
			return candidate{}, false
		}
		if r.tau-info.maxAbs-bPix < 0.1*r.tau {
			*fragile = true
		}
	default:
		// A sub-MinBlobArea component whose area could grow past the gate:
		// no cheap bound, re-evaluate.
		return candidate{}, false
	}

	// Splice the cached outcome at the new position.
	cand := candidate{
		objID:    obj.ID,
		class:    e.cand.class,
		conf:     e.cand.conf,
		detected: e.cand.detected,
		scaled: fRect{
			minX: float64(obj.BBox.MinX) * r.sx,
			minY: float64(obj.BBox.MinY) * r.sy,
			maxX: float64(obj.BBox.MaxX) * r.sx,
			maxY: float64(obj.BBox.MaxY) * r.sy,
		},
	}
	if cand.detected {
		offX := int(math.Round(float64(region.MinX) * r.sx))
		offY := int(math.Round(float64(region.MinY) * r.sy))
		cand.blob = raster.Rect{
			MinX: info.compBBox.MinX + offX,
			MinY: info.compBBox.MinY + offY,
			MaxX: info.compBBox.MaxX + offX,
			MaxY: info.compBBox.MaxY + offY,
		}
	}
	if !still {
		// The kept pre-noise pixels describe the pre-move region; a later
		// still frame must not replay them at the new position.
		e.kept.release()
	}
	e.frame = i
	e.obj = *obj
	e.region = region
	r.captureRegionSigs(e, region)
	e.isolated = isolatedIn(frame, obj, region)
	e.cand = cand
	r.tilesReused += tileSpan(region)
	r.candsReused++
	return cand, true
}
