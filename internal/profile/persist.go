package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
)

// Profile and hypercube persistence. Profile generation is the expensive
// stage (it drives the detectors); administrators archive its output and
// revisit the tradeoff choice later, or ship a profile generated on a
// similar video to the owner of a sensitive one (Section 3.3.1's
// fallback). JSON keeps the artifacts diffable and toolable.
//
// NaN bounds (infeasible hypercube cells) are encoded as null.

// persistedHypercube is the JSON schema for a Hypercube.
type persistedHypercube struct {
	Version     int            `json:"version"`
	VideoName   string         `json:"video"`
	ModelName   string         `json:"model"`
	Class       string         `json:"class"`
	Agg         string         `json:"agg"`
	Fractions   []float64      `json:"fractions"`
	Resolutions []int          `json:"resolutions"`
	Combos      [][]string     `json:"combos"`
	Bounds      [][][]*float64 `json:"bounds"`
}

const persistVersion = 1

// KeySpec names everything a cached profile artifact depends on: the
// corpus fingerprint (name plus frame count, enough to distinguish the
// deterministic synthetic corpora), the query in canonical syntax, the
// intervention family swept, the estimator parameters, and the randomness
// seed. Two generations with equal KeySpecs produce byte-identical
// artifacts, so the spec's hash content-addresses the profile store.
type KeySpec struct {
	// VideoName and FrameCount fingerprint the corpus.
	VideoName  string
	FrameCount int
	// ModelName is the detector the query resolved to.
	ModelName string
	// Query is the canonical query string (query.Query.String()).
	Query string
	// Family describes the intervention axis the profile sweeps.
	Family Family
	// Ladder names the fidelity ladder when the artifact is a ladder
	// profile ("" for a fraction sweep; the empty name does not hash, so
	// legacy sweep keys are unchanged).
	Ladder string
	// Params are the estimator knobs (risk delta, extreme quantile r).
	Params estimate.Params
	// Seed is the root randomness seed.
	Seed uint64
}

// Family is the intervention family of a profile: the swept fractions and
// the fixed non-sampling axes.
type Family struct {
	Fractions []float64
	// Setting fixes the non-sampling axes (resolution, removal, noise,
	// blur, quantization, occlusion); its SampleFraction is ignored. The
	// degrade axis registry renders its canonical key fields, emitting the
	// newer axes only when active so legacy noise-only families keep their
	// stored keys.
	Setting        degrade.Setting
	EarlyStopDelta float64
}

// CanonicalKey returns a stable hex digest of the spec. The encoding is
// order-canonical: fields are written in a fixed labelled sequence and
// Restricted classes are sorted by name before hashing, so the key does
// not depend on struct-literal, map-iteration, or clause order at the
// call site. The digest is safe to use as a file name.
func (k KeySpec) CanonicalKey() string {
	h := sha256.New()
	field := func(label, value string) {
		// Length-prefix label and value so no concatenation of fields can
		// collide with a different field split.
		fmt.Fprintf(h, "%d:%s=%d:%s;", len(label), label, len(value), value)
	}
	field("video", k.VideoName)
	field("frames", strconv.Itoa(k.FrameCount))
	field("model", k.ModelName)
	field("query", k.Query)
	fracs := make([]string, len(k.Family.Fractions))
	for i, f := range k.Family.Fractions {
		fracs[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	for _, f := range fracs {
		field("fraction", f)
	}
	// The non-sampling axes emit through the degrade axis registry in its
	// canonical order: the legacy axes (resolution, sorted restricted,
	// noise) always — reproducing stored PR 8 keys byte-for-byte — and the
	// newer axes only when active.
	for _, kf := range k.Family.Setting.KeyFields() {
		field(kf.Label, kf.Value)
	}
	if k.Ladder != "" {
		field("ladder", k.Ladder)
	}
	field("earlystop", strconv.FormatFloat(k.Family.EarlyStopDelta, 'g', -1, 64))
	field("delta", strconv.FormatFloat(k.Params.Delta, 'g', -1, 64))
	field("r", strconv.FormatFloat(k.Params.R, 'g', -1, 64))
	field("seed", strconv.FormatUint(k.Seed, 10))
	return hex.EncodeToString(h.Sum(nil))
}

// SaveHypercube writes the hypercube as indented JSON.
func SaveHypercube(w io.Writer, h *Hypercube) error {
	out := persistedHypercube{
		Version:     persistVersion,
		VideoName:   h.VideoName,
		ModelName:   h.ModelName,
		Class:       h.Class.String(),
		Agg:         h.Agg.String(),
		Fractions:   h.Fractions,
		Resolutions: h.Resolutions,
	}
	for _, combo := range h.Combos {
		names := make([]string, len(combo))
		for i, c := range combo {
			names[i] = c.String()
		}
		out.Combos = append(out.Combos, names)
	}
	for _, plane := range h.Bounds {
		var outPlane [][]*float64
		for _, row := range plane {
			outRow := make([]*float64, len(row))
			for i, v := range row {
				if !math.IsNaN(v) {
					value := v
					outRow[i] = &value
				}
			}
			outPlane = append(outPlane, outRow)
		}
		out.Bounds = append(out.Bounds, outPlane)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadHypercube reads a hypercube previously written by SaveHypercube,
// validating shape consistency.
func LoadHypercube(r io.Reader) (*Hypercube, error) {
	var in persistedHypercube
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decoding hypercube: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("profile: unsupported hypercube version %d", in.Version)
	}
	agg, err := estimate.ParseAgg(in.Agg)
	if err != nil {
		return nil, err
	}
	class, err := scene.ParseClass(in.Class)
	if err != nil {
		return nil, err
	}
	h := &Hypercube{
		VideoName:   in.VideoName,
		ModelName:   in.ModelName,
		Class:       class,
		Agg:         agg,
		Fractions:   in.Fractions,
		Resolutions: in.Resolutions,
	}
	for _, names := range in.Combos {
		var combo []scene.Class
		for _, name := range names {
			c, err := scene.ParseClass(name)
			if err != nil {
				return nil, err
			}
			combo = append(combo, c)
		}
		h.Combos = append(h.Combos, combo)
	}
	if len(in.Bounds) != len(h.Combos) {
		return nil, fmt.Errorf("profile: bounds/combos shape mismatch (%d vs %d)", len(in.Bounds), len(h.Combos))
	}
	for ci, plane := range in.Bounds {
		if len(plane) != len(h.Resolutions) {
			return nil, fmt.Errorf("profile: combo %d has %d resolution rows, want %d", ci, len(plane), len(h.Resolutions))
		}
		var outPlane [][]float64
		for ri, row := range plane {
			if len(row) != len(h.Fractions) {
				return nil, fmt.Errorf("profile: combo %d resolution %d has %d cells, want %d", ci, ri, len(row), len(h.Fractions))
			}
			outRow := make([]float64, len(row))
			for i, v := range row {
				if v == nil {
					outRow[i] = math.NaN()
				} else {
					outRow[i] = *v
				}
			}
			outPlane = append(outPlane, outRow)
		}
		h.Bounds = append(h.Bounds, outPlane)
	}
	return h, nil
}

// persistedProfile is the JSON schema for a single-axis Profile.
type persistedProfile struct {
	Version   int              `json:"version"`
	VideoName string           `json:"video"`
	ModelName string           `json:"model"`
	Class     string           `json:"class"`
	Agg       string           `json:"agg"`
	Points    []persistedPoint `json:"points"`
}

type persistedPoint struct {
	Fraction   float64  `json:"fraction"`
	Resolution int      `json:"resolution,omitempty"`
	Restricted []string `json:"restricted,omitempty"`
	Noise      float64  `json:"noise,omitempty"`
	Blur       int      `json:"blur,omitempty"`
	Quantize   int      `json:"quantize,omitempty"`
	Occlusion  float64  `json:"occlusion,omitempty"`
	Value      float64  `json:"value"`
	ErrBound   float64  `json:"err_bound"`
	Sample     int      `json:"sample"`
	N          int      `json:"n"`
	Repaired   bool     `json:"repaired,omitempty"`
	Tier       string   `json:"tier,omitempty"`
}

// SaveProfile writes a profile as indented JSON. A point whose bound is
// +Inf — a repair against a correction set that answered zero — cannot be
// sealed: nothing is written and the error wraps
// estimate.ErrDegenerateCorrection.
//
//smokevet:ignore axisreg: persistedPoint is the versioned JSON wire format — its named fields ARE the format, not an axis dispatch
func SaveProfile(w io.Writer, p *Profile) error {
	out := persistedProfile{
		Version:   persistVersion,
		VideoName: p.VideoName,
		ModelName: p.ModelName,
		Class:     p.Class.String(),
		Agg:       p.Agg.String(),
	}
	for _, pt := range p.Points {
		if math.IsInf(pt.Estimate.ErrBound, 1) {
			return fmt.Errorf("profile: sealing the point at %v: %w", pt.Setting, estimate.ErrDegenerateCorrection)
		}
		pp := persistedPoint{
			Fraction:   pt.Setting.SampleFraction,
			Resolution: pt.Setting.Resolution,
			Noise:      pt.Setting.NoiseSigma,
			Blur:       pt.Setting.MotionBlur,
			Quantize:   pt.Setting.Quantize,
			Occlusion:  pt.Setting.Occlusion,
			Value:      pt.Estimate.Value,
			ErrBound:   pt.Estimate.ErrBound,
			Sample:     pt.Estimate.Sample,
			N:          pt.Estimate.N,
			Repaired:   pt.Repaired,
			Tier:       pt.Tier,
		}
		for _, c := range pt.Setting.Restricted {
			pp.Restricted = append(pp.Restricted, c.String())
		}
		out.Points = append(out.Points, pp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadProfile reads a profile previously written by SaveProfile.
func LoadProfile(r io.Reader) (*Profile, error) {
	var in persistedProfile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decoding profile: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("profile: unsupported profile version %d", in.Version)
	}
	agg, err := estimate.ParseAgg(in.Agg)
	if err != nil {
		return nil, err
	}
	class, err := scene.ParseClass(in.Class)
	if err != nil {
		return nil, err
	}
	p := &Profile{VideoName: in.VideoName, ModelName: in.ModelName, Class: class, Agg: agg}
	for _, pp := range in.Points {
		setting := degrade.Setting{
			SampleFraction: pp.Fraction,
			Resolution:     pp.Resolution,
			NoiseSigma:     pp.Noise,
			MotionBlur:     pp.Blur,
			Quantize:       pp.Quantize,
			Occlusion:      pp.Occlusion,
		}
		for _, name := range pp.Restricted {
			c, err := scene.ParseClass(name)
			if err != nil {
				return nil, err
			}
			setting.Restricted = append(setting.Restricted, c)
		}
		p.Points = append(p.Points, Point{
			Setting: setting,
			Estimate: estimate.Estimate{
				Value:    pp.Value,
				ErrBound: pp.ErrBound,
				Sample:   pp.Sample,
				N:        pp.N,
			},
			Repaired: pp.Repaired,
			Tier:     pp.Tier,
		})
	}
	return p, nil
}
