// Package degrade implements the paper's destructive interventions
// (Section 2.1) and their composition into intervention settings:
//
//   - reduced frame sampling (random): keep a random fraction f of frames,
//     sampled without replacement;
//   - reduced frame resolution (non-random): process frames at p x p;
//   - image removal (non-random): delete every frame containing a
//     restricted object class, using stored prior presence information
//     (paper Section 5.1);
//   - pixel-space capture interventions (all non-random): added sensor
//     noise, horizontal motion blur, intensity quantization (JPEG-style
//     compression), and lens scratch/dirt occlusion, applied to the corpus
//     as a render-time view (scene.View).
//
// A Setting extends the paper's (f, p, c) triple with the pixel axes; the
// axis registry in axes.go is the single source of truth for which axes
// exist and how each validates, renders, persists and orders. Apply
// materialises a setting against a corpus into a Plan: the admissible
// frame pool and the sampled frame indices a query processor may touch.
package degrade

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// Setting is one point in the intervention space: the paper's (f, p, c).
type Setting struct {
	// SampleFraction is f: the fraction of the corpus that may be
	// processed, in (0, 1]. 1 means every admissible frame.
	SampleFraction float64
	// Resolution is p: the model input resolution. 0 means the model's
	// native (loosest) resolution.
	Resolution int
	// Restricted is c: frames containing any of these classes are removed
	// before sampling. Empty means no image removal.
	Restricted []scene.Class
	// NoiseSigma is the noise-addition intervention: extra sensor noise
	// (absolute intensity sigma at native resolution) injected at capture
	// to defeat recognition (paper Section 2.1 cites invisible-noise
	// privacy methods). Zero means none. Non-random: it biases detector
	// outputs, so bounds require profile repair.
	NoiseSigma float64
	// MotionBlur is the horizontal motion-blur streak length in native
	// pixels (a deliberately long exposure); 0 and 1 mean none. Non-random.
	MotionBlur int
	// Quantize is the number of uniform intensity levels frames are
	// quantized to (JPEG-style compression); 0 means none, otherwise at
	// least 2. Non-random.
	Quantize int
	// Occlusion is the lens scratch/dirt density in [0, 0.5]; 0 means
	// none. Non-random.
	Occlusion float64
}

// IsRandomOnly reports whether the setting consists solely of random
// interventions (reduced frame sampling). Non-random interventions — any
// active non-random axis in the registry: reduced resolution, image
// removal, or a pixel-space transform — change the distribution of model
// outputs and require profile repair (paper Section 3.2.5).
func (s Setting) IsRandomOnly(m *detect.Model) bool {
	for _, ax := range axes {
		if !ax.Random && ax.Active(s, m) {
			return false
		}
	}
	return true
}

// ResolveResolution returns the model input resolution this setting uses.
func (s Setting) ResolveResolution(m *detect.Model) int {
	if s.Resolution == 0 {
		return m.NativeInput
	}
	return s.Resolution
}

// Validate checks the setting against a model's input constraints by
// running every registered axis's validator.
func (s Setting) Validate(m *detect.Model) error {
	for _, ax := range axes {
		if err := ax.Validate(s, m); err != nil {
			return err
		}
	}
	return nil
}

// String renders the setting in the (f, p, c) notation of the paper,
// extended with one clause per active pixel axis; the rendering of legacy
// settings is unchanged.
func (s Setting) String() string {
	var b strings.Builder
	for _, ax := range axes {
		clause := ax.Format(s)
		if clause == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(clause)
	}
	return b.String()
}

// Plan is a Setting materialised against a corpus: which frames survive
// image removal, and which of those were sampled for processing.
type Plan struct {
	Setting    Setting
	Resolution int   // resolved model input resolution
	Admissible []int // frame indices not containing restricted classes
	Sampled    []int // the n sampled frame indices (subset of Admissible)
	Total      int   // N: corpus size before any intervention
}

// ApplyCtx materialises the setting: computes the admissible pool via the
// stored class-presence priors, then samples n = round(f*N) frames from it
// without replacement using the provided random stream. It returns an
// error when the requested sample exceeds the admissible pool — the
// situation the paper handles by lowering f (Section 5.2.2 uses f = 0.1
// for UA-DETRAC with restricted class "person"). Computing the admissible
// pool runs the paper's presence protocol (one probe per frame and
// restricted class the first time, see outputs.Presence), which a
// cancelled context aborts; a frame with a stored native row (plan.BuildLadder
// detects its planned native frames first) is read, not probed.
func ApplyCtx(ctx context.Context, v *scene.Video, m *detect.Model, s Setting, stream *stats.Stream) (*Plan, error) {
	if err := s.Validate(m); err != nil {
		return nil, err
	}
	n := v.NumFrames()
	admissible, err := AdmissibleFramesCtx(ctx, v, s.Restricted)
	if err != nil {
		return nil, err
	}
	want := int(float64(n)*s.SampleFraction + 0.5)
	if want < 1 {
		want = 1
	}
	if want > len(admissible) {
		return nil, fmt.Errorf("degrade: sample of %d frames exceeds admissible pool of %d (of %d total); lower the sample fraction",
			want, len(admissible), n)
	}
	idx := stream.SampleWithoutReplacement(len(admissible), want)
	sampled := make([]int, len(idx))
	for i, j := range idx {
		sampled[i] = admissible[j]
	}
	sort.Ints(sampled)
	return &Plan{
		Setting:    s,
		Resolution: s.ResolveResolution(m),
		Admissible: admissible,
		Sampled:    sampled,
		Total:      n,
	}, nil
}

// AdmissibleFramesCtx returns the indices of frames that contain none of
// the restricted classes, per the stored prior presence information. The
// only error it returns is the context's.
func AdmissibleFramesCtx(ctx context.Context, v *scene.Video, restricted []scene.Class) ([]int, error) {
	n := v.NumFrames()
	if len(restricted) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	blocked := make([]bool, n)
	for _, c := range restricted {
		present, err := outputs.Presence(ctx, v, c)
		if err != nil {
			return nil, err
		}
		for i, p := range present {
			if p {
				blocked[i] = true
			}
		}
	}
	var out []int
	for i := 0; i < n; i++ {
		if !blocked[i] {
			out = append(out, i)
		}
	}
	return out, nil
}

// SampleOutputsCtx gathers the model outputs for the plan's sampled frames
// at the plan's resolution: the x_1..x_n series the estimators consume.
// Only the sampled frames are evaluated (lazily, through the column store),
// so the model cost of a degraded query is proportional to n, not N. When
// the plan's setting adds capture noise, detection runs on the noised view
// of the corpus. The only error it returns is the context's.
func SampleOutputsCtx(ctx context.Context, v *scene.Video, m *detect.Model, class scene.Class, p *Plan) ([]float64, error) {
	return outputs.At(ctx, EffectiveVideo(v, p.Setting), m, class, p.Resolution, p.Sampled)
}
