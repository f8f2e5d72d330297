package profile

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func TestHypercubeRoundTrip(t *testing.T) {
	s := testSpec(estimate.AVG)
	root := stats.NewStream(301)
	res, err := ConstructCorrectionCtx(context.Background(), s, 0.05, root.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := GenerateHypercubeCtx(context.Background(), s, HypercubeOptions{Fractions: []float64{0.02, 0.1}, Correction: res.Correction, Parallelism: 1}, root.Child(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveHypercube(&buf, cube); err != nil {
		t.Fatal(err)
	}
	back, err := LoadHypercube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.VideoName != cube.VideoName || back.Agg != cube.Agg || back.Class != cube.Class {
		t.Fatalf("metadata lost: %+v", back)
	}
	if len(back.Bounds) != len(cube.Bounds) {
		t.Fatal("combo axis lost")
	}
	for ci := range cube.Bounds {
		for ri := range cube.Bounds[ci] {
			for fi := range cube.Bounds[ci][ri] {
				a, b := cube.Bounds[ci][ri][fi], back.Bounds[ci][ri][fi]
				if math.IsNaN(a) != math.IsNaN(b) {
					t.Fatalf("NaN handling broken at %d/%d/%d", ci, ri, fi)
				}
				if !math.IsNaN(a) && a != b {
					t.Fatalf("bound drifted at %d/%d/%d: %v vs %v", ci, ri, fi, a, b)
				}
			}
		}
	}
	// The loaded cube supports tradeoff selection like the original.
	want, okWant := cube.ChooseTradeoff(0.5)
	got, okGot := back.ChooseTradeoff(0.5)
	if okWant != okGot || want.String() != got.String() {
		t.Fatalf("ChooseTradeoff differs after round trip: %v vs %v", want, got)
	}
}

func TestHypercubeLoadRejectsCorruption(t *testing.T) {
	cases := []string{
		``,
		`{"version": 99}`,
		`{"version": 1, "agg": "MEDIAN", "class": "car"}`,
		`{"version": 1, "agg": "AVG", "class": "dog"}`,
		`{"version": 1, "agg": "AVG", "class": "car", "combos": [[]], "bounds": []}`,
	}
	for _, input := range cases {
		if _, err := LoadHypercube(strings.NewReader(input)); err == nil {
			t.Fatalf("corrupt hypercube accepted: %q", input)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := &Profile{
		VideoName: "small",
		ModelName: "yolov4-sim",
		Class:     scene.Car,
		Agg:       estimate.MAX,
		Points: []Point{
			{
				Setting:  degrade.Setting{SampleFraction: 0.1, Resolution: 160, Restricted: []scene.Class{scene.Face}, NoiseSigma: 0.05},
				Estimate: estimate.Estimate{Value: 7, ErrBound: 0.2, Sample: 120, N: 1200},
				Repaired: true,
			},
			{
				Setting:  degrade.Setting{SampleFraction: 0.5},
				Estimate: estimate.Estimate{Value: 8, ErrBound: 0.05, Sample: 600, N: 1200},
			},
		},
	}
	var buf bytes.Buffer
	if err := SaveProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Agg != p.Agg || back.Class != p.Class || len(back.Points) != 2 {
		t.Fatalf("profile lost: %+v", back)
	}
	pt := back.Points[0]
	if pt.Setting.String() != p.Points[0].Setting.String() {
		t.Fatalf("setting drifted: %v vs %v", pt.Setting, p.Points[0].Setting)
	}
	if pt.Estimate != p.Points[0].Estimate || !pt.Repaired {
		t.Fatalf("estimate drifted: %+v", pt)
	}
	// A loaded profile drives tradeoff choices.
	setting, ok := back.ChooseFraction(0.1)
	if !ok || setting.SampleFraction != 0.5 {
		t.Fatalf("ChooseFraction on loaded profile: %v %v", setting, ok)
	}
}

func TestProfileLoadRejectsCorruption(t *testing.T) {
	for _, input := range []string{``, `{"version": 7}`, `{"version":1,"agg":"NOPE","class":"car"}`} {
		if _, err := LoadProfile(strings.NewReader(input)); err == nil {
			t.Fatalf("corrupt profile accepted: %q", input)
		}
	}
}

func TestCanonicalKeyStable(t *testing.T) {
	spec := KeySpec{
		VideoName:  "small",
		FrameCount: 1200,
		ModelName:  "yolov4",
		Query:      "SELECT AVG(count(car)) FROM small",
		Family: Family{
			Fractions: []float64{0.02, 0.05, 0.1},
			Setting: degrade.Setting{
				Resolution: 320,
				Restricted: []scene.Class{scene.Person, scene.Face},
			},
		},
		Params: estimate.Params{Delta: 0.05, R: 0.99},
		Seed:   1,
	}
	key := spec.CanonicalKey()
	if len(key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", key)
	}
	if spec.CanonicalKey() != key {
		t.Fatal("key not deterministic across calls")
	}

	// Restricted-class order must not matter: the set, not the slice, is
	// part of the artifact's identity.
	reordered := spec
	reordered.Family.Setting.Restricted = []scene.Class{scene.Face, scene.Person}
	if reordered.CanonicalKey() != key {
		t.Fatal("key depends on restricted-class order")
	}

	// Building the spec from a map (any iteration order) must also agree.
	fields := map[string]func(*KeySpec){
		"video":  func(k *KeySpec) { k.VideoName = "small" },
		"frames": func(k *KeySpec) { k.FrameCount = 1200 },
		"model":  func(k *KeySpec) { k.ModelName = "yolov4" },
		"query":  func(k *KeySpec) { k.Query = "SELECT AVG(count(car)) FROM small" },
		"family": func(k *KeySpec) {
			k.Family = Family{
				Fractions: []float64{0.02, 0.05, 0.1},
				Setting: degrade.Setting{
					Resolution: 320,
					Restricted: []scene.Class{scene.Person, scene.Face},
				},
			}
		},
		"params": func(k *KeySpec) { k.Params = estimate.Params{Delta: 0.05, R: 0.99} },
		"seed":   func(k *KeySpec) { k.Seed = 1 },
	}
	var fromMap KeySpec
	for _, set := range fields {
		set(&fromMap)
	}
	if fromMap.CanonicalKey() != key {
		t.Fatal("key depends on construction order")
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	base := KeySpec{
		VideoName:  "small",
		FrameCount: 1200,
		ModelName:  "yolov4",
		Query:      "SELECT AVG(count(car)) FROM small",
		Family: Family{
			Fractions: []float64{0.02, 0.05},
			Setting: degrade.Setting{
				Resolution: 320,
				Restricted: []scene.Class{scene.Person},
			},
		},
		Params: estimate.Params{Delta: 0.05, R: 0.99},
		Seed:   1,
	}
	key := base.CanonicalKey()
	mutations := map[string]func(*KeySpec){
		"video":      func(k *KeySpec) { k.VideoName = "highway" },
		"frames":     func(k *KeySpec) { k.FrameCount = 1201 },
		"model":      func(k *KeySpec) { k.ModelName = "mask-rcnn" },
		"query":      func(k *KeySpec) { k.Query = "SELECT SUM(count(car)) FROM small" },
		"fractions":  func(k *KeySpec) { k.Family.Fractions = []float64{0.02, 0.06} },
		"resolution": func(k *KeySpec) { k.Family.Setting.Resolution = 160 },
		"restricted": func(k *KeySpec) { k.Family.Setting.Restricted = []scene.Class{scene.Face} },
		"noise":      func(k *KeySpec) { k.Family.Setting.NoiseSigma = 0.1 },
		"blur":       func(k *KeySpec) { k.Family.Setting.MotionBlur = 7 },
		"quantize":   func(k *KeySpec) { k.Family.Setting.Quantize = 32 },
		"occlusion":  func(k *KeySpec) { k.Family.Setting.Occlusion = 0.2 },
		"ladder":     func(k *KeySpec) { k.Ladder = "default" },
		"earlystop":  func(k *KeySpec) { k.Family.EarlyStopDelta = 0.01 },
		"delta":      func(k *KeySpec) { k.Params.Delta = 0.1 },
		"r":          func(k *KeySpec) { k.Params.R = 0.95 },
		"seed":       func(k *KeySpec) { k.Seed = 2 },
	}
	for name, mutate := range mutations {
		changed := base
		// Deep-copy the slices the mutation may share with base.
		changed.Family.Fractions = append([]float64(nil), base.Family.Fractions...)
		changed.Family.Setting.Restricted = append([]scene.Class(nil), base.Family.Setting.Restricted...)
		mutate(&changed)
		if changed.CanonicalKey() == key {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// Labelled length-prefixed fields: moving a value between adjacent
	// fields must not collide.
	a := base
	a.VideoName, a.ModelName = "ab", "c"
	b := base
	b.VideoName, b.ModelName = "a", "bc"
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("field boundaries collide")
	}
}
