// Package detect implements the simulated neural-network detectors that
// stand in for YOLOv4, Mask R-CNN and MTCNN (paper Section 4). Detection is
// not a lookup table: frames are rasterised, box-filtered down to the model
// input resolution, corrupted with sensor noise, and then processed by an
// actual image pipeline — background estimation, adaptive thresholding,
// connected components, shape classification and confidence scoring.
// Resolution degradation therefore harms accuracy through the same physical
// mechanisms it does for a CNN: small objects blur below the detection
// threshold, nearby objects merge, and clutter produces false positives.
//
// One behaviour cannot emerge from pixels alone: the paper's Figure 7/8
// anomaly, where the real YOLOv4 is *worse* at 384x384 than at the lower
// 320x320 because of a scale resonance in its anchor grid. We model that as
// a per-model duplicate-detection response curve (Model.DupRes/DupAmp),
// documented in DESIGN.md as a calibrated substitution: the duplicate
// process is deterministic per (frame, object, resolution) and peaks at the
// resonant input size, reproducing the paper's rightward-shifted count
// distribution at 384.
//
// Two execution paths exist and are property-tested against each other:
//
//   - the full-frame path (reference) renders and scans the entire frame;
//   - the patch path (production) evaluates each ground-truth object's
//     local neighbourhood plus a clutter false-positive process, costing
//     O(objects) instead of O(pixels) per frame. Results are cached by
//     internal/outputs per (corpus view, model, resolution) — one row per
//     frame serves every class — mirroring how the paper reuses model
//     outputs across sample fractions (Section 3.3.2). The same body
//     answers presence probes (ProbeFrame), stopping at the first object
//     that decides the question.
package detect

import (
	"fmt"
	"math"

	"smokescreen/internal/scene"
)

// Model is a simulated detector profile. The exported fields form the
// calibration surface; the three built-in profiles are YOLOv4Sim,
// MaskRCNNSim and MTCNNSim.
type Model struct {
	Name string

	// NativeInput is the largest supported input resolution: 608 for
	// YOLOv4, 640 for Mask R-CNN (paper Section 5.1).
	NativeInput int
	// InputMultiple constrains valid input resolutions: YOLOv4 requires
	// multiples of 32, the default Mask R-CNN multiples of 64.
	InputMultiple int

	// Threshold is the confidence cutoff: a detection is reported when its
	// confidence reaches this value (0.7 for car/person, 0.8 for faces).
	Threshold float64

	// Pixel pipeline calibration.
	NSigma      float64 // detection threshold in units of noise sigma
	MinContrast float64 // absolute contrast floor for the threshold
	MinBlobArea int     // smallest component, in model-input pixels

	// Confidence model: logistic responses in blob size and SNR.
	SizeMid       float64 // sqrt(area) at which size confidence is 0.5
	SizeScale     float64 // logistic width of the size response
	ContrastMid   float64 // contrast/threshold ratio at 0.5 confidence
	ContrastScale float64

	// MergeGap is the distance (model-input pixels) under which two
	// same-class objects fuse into one blob.
	MergeGap float64

	// Duplicate-resonance model (one-stage detectors only): at input
	// resolution DupRes the detector double-fires on objects whose largest
	// dimension lies in [DupSizeLo, DupSizeHi] model pixels, with
	// probability DupAmp; neighbouring resolutions get a fraction via a
	// triangular falloff of half-width DupResWidth.
	DupRes      int
	DupResWidth int
	DupSizeLo   float64
	DupSizeHi   float64
	DupAmp      float64

	// FPRate is the expected number of clutter false positives per frame
	// at native input resolution and unit clutter-to-threshold ratio.
	FPRate float64

	// TargetClasses restricts what the model can detect (MTCNN detects
	// faces only); nil means every class.
	TargetClasses []scene.Class
}

// YOLOv4Sim simulates the one-stage YOLOv4 used for UA-DETRAC (and for the
// night-street anomaly study in Figures 7-8): fast, slightly lower
// small-object sensitivity, and the 384x384 scale resonance.
func YOLOv4Sim() *Model {
	return &Model{
		Name:          "yolov4-sim",
		NativeInput:   608,
		InputMultiple: 32,
		Threshold:     0.7,
		NSigma:        2.5,
		MinContrast:   0.04,
		MinBlobArea:   4,
		SizeMid:       11,
		SizeScale:     3.0,
		ContrastMid:   1.25,
		ContrastScale: 0.28,
		MergeGap:      1.25,
		DupRes:        384,
		DupResWidth:   64,
		DupSizeLo:     38,
		DupSizeHi:     95,
		DupAmp:        0.55,
		FPRate:        0.03,
	}
}

// MaskRCNNSim simulates the two-stage Mask R-CNN used for night-street:
// better small-object recall, no anchor resonance (the second stage
// suppresses duplicate proposals), slightly higher per-frame cost.
func MaskRCNNSim() *Model {
	return &Model{
		Name:          "mask-rcnn-sim",
		NativeInput:   640,
		InputMultiple: 64,
		Threshold:     0.7,
		NSigma:        2.2,
		MinContrast:   0.035,
		MinBlobArea:   3,
		SizeMid:       9,
		SizeScale:     2.5,
		ContrastMid:   1.15,
		ContrastScale: 0.3,
		MergeGap:      1.0,
		DupAmp:        0, // two-stage: no duplicate resonance
		FPRate:        0.02,
	}
}

// MTCNNSim simulates the MTCNN face detector used for the image-removal
// prior (threshold 0.8). Faces are tiny, so the profile demands less area
// but more contrast, and it only reports the Face class.
func MTCNNSim() *Model {
	return &Model{
		Name:          "mtcnn-sim",
		NativeInput:   640,
		InputMultiple: 16,
		Threshold:     0.8,
		NSigma:        2.3,
		MinContrast:   0.05,
		MinBlobArea:   2,
		SizeMid:       2.4,
		SizeScale:     0.7,
		ContrastMid:   1.35,
		ContrastScale: 0.25,
		MergeGap:      0.8,
		DupAmp:        0,
		FPRate:        0.005,
		TargetClasses: []scene.Class{scene.Face},
	}
}

// ModelByName resolves the built-in model profiles for CLIs and queries.
func ModelByName(name string) (*Model, error) {
	switch name {
	case "yolov4", "yolov4-sim":
		return YOLOv4Sim(), nil
	case "mask-rcnn", "mask-rcnn-sim", "maskrcnn":
		return MaskRCNNSim(), nil
	case "mtcnn", "mtcnn-sim":
		return MTCNNSim(), nil
	}
	return nil, fmt.Errorf("detect: unknown model %q", name)
}

// ValidResolution reports whether p is an input resolution this model
// accepts: a positive multiple of InputMultiple no larger than NativeInput.
func (m *Model) ValidResolution(p int) bool {
	return p > 0 && p <= m.NativeInput && p%m.InputMultiple == 0
}

// Resolutions returns the model's n largest valid input resolutions in
// descending order, uniformly spaced — the paper's intervention-candidate
// design generates ten (Section 3.3.2).
func (m *Model) Resolutions(n int) []int {
	if n <= 0 {
		return nil
	}
	var all []int
	for p := m.InputMultiple; p <= m.NativeInput; p += m.InputMultiple {
		all = append(all, p)
	}
	if len(all) <= n {
		out := make([]int, len(all))
		for i, p := range all {
			out[len(all)-1-i] = p
		}
		return out
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		// Uniform positions from the largest down to the smallest.
		idx := len(all) - 1 - i*(len(all)-1)/(n-1)
		out = append(out, all[idx])
	}
	return out
}

// CanDetect reports whether the model reports objects of class c.
func (m *Model) CanDetect(c scene.Class) bool {
	if len(m.TargetClasses) == 0 {
		return true
	}
	for _, tc := range m.TargetClasses {
		if tc == c {
			return true
		}
	}
	return false
}

// dupProbability returns the probability that an object with largest
// model-pixel dimension size is detected twice at input resolution p. The
// resonance only manifests in low-SNR scenes (the paper observed it for
// YOLOv4 on *night*-street, not on daytime UA-DETRAC with the same model),
// so bright scenes attenuate it heavily.
func (m *Model) dupProbability(v *scene.Video, p int, size float64) float64 {
	return m.dupProbabilityRaw(float64(v.Config.Lighting.NoiseSigma), p, size)
}

// dupProbabilityRaw is dupProbability for callers without a scene.Video
// (frames received over the wire): the scene's native noise sigma carries
// the day/night information.
func (m *Model) dupProbabilityRaw(nativeNoiseSigma float64, p int, size float64) float64 {
	if m.DupAmp == 0 {
		return 0
	}
	if size < m.DupSizeLo || size > m.DupSizeHi {
		return 0
	}
	d := math.Abs(float64(p - m.DupRes))
	if d >= float64(m.DupResWidth) {
		return 0
	}
	prob := m.DupAmp * (1 - d/float64(m.DupResWidth))
	if nativeNoiseSigma < 0.03 {
		prob *= 0.1 // daytime scenes: the confusion band barely fires
	}
	return prob
}

// logistic is the shared squashing function of the confidence model.
func logistic(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

// confidence combines the blob's size and signal-to-threshold responses.
func (m *Model) confidence(area int, meanContrast, threshold float64) float64 {
	sizeConf := logistic((math.Sqrt(float64(area)) - m.SizeMid) / m.SizeScale)
	snr := meanContrast / threshold
	contrastConf := logistic((snr - m.ContrastMid) / m.ContrastScale)
	return sizeConf * contrastConf
}
