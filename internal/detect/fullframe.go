package detect

import (
	"fmt"
	"math"
	"sync"

	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// bgDownKey caches the downsampled static background per (corpus,
// resolution) for the full-frame path.
type bgDownKey struct {
	video *scene.Video
	p     int
}

var (
	bgDownMu    sync.Mutex
	bgDownCache = map[bgDownKey]*raster.Image{}
)

func downsampledBackground(v *scene.Video, p int) *raster.Image {
	key := bgDownKey{video: v, p: p}
	bgDownMu.Lock()
	defer bgDownMu.Unlock()
	if img, ok := bgDownCache[key]; ok {
		return img
	}
	img := raster.Downsample(v.Background(), p, p)
	bgDownCache[key] = img
	return img
}

// backgroundStats reports the downsampled-background cache size for the
// byte-accounted cache report.
func backgroundStats() (n int, bytes int64) {
	bgDownMu.Lock()
	defer bgDownMu.Unlock()
	for _, img := range bgDownCache {
		n++
		bytes += int64(len(img.Pix)) * 4
	}
	return n, bytes
}

// resetBackgrounds drops every cached downsampled background.
func resetBackgrounds() {
	bgDownMu.Lock()
	defer bgDownMu.Unlock()
	clear(bgDownCache)
}

// DetectFrameFull is the reference detection path: it renders the entire
// frame at native resolution, downsamples it to p x p, adds sensor noise,
// subtracts the (equally downsampled) static background, denoises, and
// scans the whole difference image with threshold + connected components +
// classification + confidence scoring. It costs O(pixels) per frame and
// exists to validate the O(objects) patch path and to serve small
// interactive workloads. False positives arise organically here when noise
// survives both the threshold and the confidence gate.
//
// Single-class face models additionally use a top-hat pass (local contrast
// against a wide blur) because faces live inside person blobs where
// background subtraction cannot isolate them.
func (m *Model) DetectFrameFull(v *scene.Video, i, p int) []Detection {
	if !m.ValidResolution(p) {
		panic(fmt.Sprintf("detect: %s cannot run at resolution %d", m.Name, p))
	}
	cfg := &v.Config
	sx := float64(p) / float64(cfg.Width)
	sigmaEff := effectiveNoise(float64(cfg.Lighting.NoiseSigma), sx)

	img := raster.GetScratch(p, p)
	defer raster.PutScratch(img)
	renderDegradedInto(img, v, i, p, float32(sigmaEff))
	return m.DetectPixels(img, downsampledBackground(v, p), float64(cfg.Lighting.NoiseSigma), cfg.Width, dupSeed(cfg.Seed, i, p, 0))
}

// renderDegradedInto renders the degraded frame into dst (p x p): native
// render from pooled scratch, box-filter downsample, deterministic sensor
// noise at the effective post-resample sigma.
func renderDegradedInto(dst *raster.Image, v *scene.Video, i, p int, sigma float32) {
	cfg := &v.Config
	native := raster.GetScratch(cfg.Width, cfg.Height)
	v.RenderRegionInto(native, i, raster.RectWH(0, 0, cfg.Width, cfg.Height))
	raster.DownsampleInto(dst, native)
	raster.PutScratch(native)
	dst.AddNoise(frameNoiseSeed(cfg.Seed, i, p), sigma)
}

// DetectPixels runs the full-frame pipeline on an already-captured (and
// possibly transmitted) frame raster against a static background raster of
// the same size. nativeNoiseSigma and captureWidth are the camera's sensor
// spec — the receiver learns them from the camera's configuration message;
// the effective noise in img follows from the resolution ratio. dupKey
// seeds the duplicate resonance deterministically per frame. This is the
// entry point the central query processor uses on frames arriving over the
// camera transport, where no scene.Video exists on the receiving side.
func (m *Model) DetectPixels(img, bg *raster.Image, nativeNoiseSigma float64, captureWidth int, dupKey uint64) []Detection {
	if img.W != bg.W || img.H != bg.H {
		panic("detect: DetectPixels frame/background size mismatch")
	}
	if captureWidth <= 0 {
		panic("detect: DetectPixels requires a positive capture width")
	}
	countInvocation()
	p := img.W
	scale := float64(p) / float64(captureWidth)
	if scale > 1 {
		scale = 1
	}
	sigmaEff := effectiveNoise(nativeNoiseSigma, scale)
	tau := m.threshold(sigmaEff)

	var diff *plane
	if len(m.TargetClasses) == 1 && m.TargetClasses[0] == scene.Face {
		diff = fullFrameTopHat(img)
	} else {
		diff = diffPlane(img, bg)
	}
	comps := floatComponents(diff, tau)
	putPlane(diff)

	var out []Detection
	for ci := range comps {
		comp := &comps[ci]
		if comp.Area < m.MinBlobArea {
			continue
		}
		conf := m.confidence(comp.Area, comp.MeanContrast(), tau)
		if conf < m.Threshold {
			continue
		}
		class := m.classify(comp.BBox, comp.Area)
		if !m.CanDetect(class) {
			continue
		}
		out = append(out, Detection{Class: class, BBox: comp.BBox, Confidence: conf})

		// Apply the same duplicate resonance as the patch path, keyed on
		// the blob's geometry since no object identity exists here.
		size := math.Max(float64(comp.BBox.W()), float64(comp.BBox.H()))
		prob := m.dupProbabilityRaw(nativeNoiseSigma, p, size)
		if prob > 0 {
			key := dupKey ^ uint64(comp.BBox.MinX<<16|comp.BBox.MinY)
			if hash01(key) < prob {
				out = append(out, Detection{Class: class, BBox: comp.BBox, Confidence: conf * 0.92})
			}
		}
	}
	sortDetections(out)
	return out
}

// fullFrameTopHat isolates small features against their local surroundings
// over the whole frame, the face model's detection response.
func fullFrameTopHat(img *raster.Image) *plane {
	radius := maxInt(2, img.W/40)
	wide := raster.GetScratch(img.W, img.H)
	raster.BoxBlurInto(wide, img, radius)
	diff := diffPlane(img, wide)
	raster.PutScratch(wide)
	return diff
}

// CountClass returns the number of detections of class c.
func CountClass(ds []Detection, c scene.Class) int {
	n := 0
	for i := range ds {
		if ds[i].Class == c {
			n++
		}
	}
	return n
}
