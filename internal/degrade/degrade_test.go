package degrade

import (
	"context"
	"strings"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func TestSettingValidate(t *testing.T) {
	m := detect.YOLOv4Sim()
	valid := []Setting{
		{SampleFraction: 0.5},
		{SampleFraction: 1, Resolution: 608},
		{SampleFraction: 0.01, Resolution: 32, Restricted: []scene.Class{scene.Person, scene.Face}},
	}
	for _, s := range valid {
		if err := s.Validate(m); err != nil {
			t.Fatalf("valid setting %v rejected: %v", s, err)
		}
	}
	invalid := []Setting{
		{SampleFraction: 0},
		{SampleFraction: 1.5},
		{SampleFraction: 0.5, Resolution: 100},
		{SampleFraction: 0.5, Resolution: 640}, // above YOLO native
		{SampleFraction: 0.5, Restricted: []scene.Class{scene.Person, scene.Person}},
	}
	for _, s := range invalid {
		if err := s.Validate(m); err == nil {
			t.Fatalf("invalid setting %v accepted", s)
		}
	}
}

func TestIsRandomOnly(t *testing.T) {
	m := detect.YOLOv4Sim()
	if !(Setting{SampleFraction: 0.1}).IsRandomOnly(m) {
		t.Fatal("pure sampling should be random-only")
	}
	if !(Setting{SampleFraction: 0.1, Resolution: 608}).IsRandomOnly(m) {
		t.Fatal("native resolution should still be random-only")
	}
	if (Setting{SampleFraction: 0.1, Resolution: 320}).IsRandomOnly(m) {
		t.Fatal("reduced resolution is non-random")
	}
	if (Setting{SampleFraction: 0.1, Restricted: []scene.Class{scene.Face}}).IsRandomOnly(m) {
		t.Fatal("image removal is non-random")
	}
}

func TestSettingString(t *testing.T) {
	s := Setting{SampleFraction: 0.25, Resolution: 128, Restricted: []scene.Class{scene.Person, scene.Face}}
	str := s.String()
	for _, want := range []string{"f=0.25", "p=128x128", "person+face"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
	if got := (Setting{SampleFraction: 1}).String(); !strings.Contains(got, "p=native") || !strings.Contains(got, "c=none") {
		t.Fatalf("loose setting string = %q", got)
	}
}

func TestApplySampling(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	stream := stats.NewStream(1)
	plan, err := ApplyCtx(context.Background(), v, m, Setting{SampleFraction: 0.1}, stream)
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(v.NumFrames())*0.1 + 0.5)
	if len(plan.Sampled) != want {
		t.Fatalf("sample size %d, want %d", len(plan.Sampled), want)
	}
	if plan.Total != v.NumFrames() {
		t.Fatalf("plan.Total = %d", plan.Total)
	}
	if plan.Resolution != m.NativeInput {
		t.Fatalf("resolution %d, want native", plan.Resolution)
	}
	// Sampled indices are distinct, sorted, in range.
	prev := -1
	for _, idx := range plan.Sampled {
		if idx <= prev || idx >= v.NumFrames() {
			t.Fatalf("bad sampled index %d after %d", idx, prev)
		}
		prev = idx
	}
}

func TestApplySamplingUniform(t *testing.T) {
	// Every frame should be sampled with roughly equal frequency.
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	counts := make([]int, v.NumFrames())
	const trials = 400
	root := stats.NewStream(7)
	for trial := 0; trial < trials; trial++ {
		plan, err := ApplyCtx(context.Background(), v, m, Setting{SampleFraction: 0.2}, root.Child(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range plan.Sampled {
			counts[idx]++
		}
	}
	want := float64(trials) * 0.2
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(lo) < want*0.5 || float64(hi) > want*1.5 {
		t.Fatalf("sampling not uniform: min %d max %d want ~%.0f", lo, hi, want)
	}
}

func TestApplyImageRemoval(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	// The small corpus is dense daytime traffic where most frames contain a
	// person, so restrict the rarer "face" class for the positive case.
	s := Setting{SampleFraction: 0.05, Restricted: []scene.Class{scene.Face}}
	plan, err := ApplyCtx(context.Background(), v, m, s, stats.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	present, err := outputs.Presence(context.Background(), v, scene.Face)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range plan.Admissible {
		if present[idx] {
			t.Fatalf("admissible frame %d contains a restricted object", idx)
		}
	}
	for _, idx := range plan.Sampled {
		if present[idx] {
			t.Fatalf("sampled frame %d contains a restricted object", idx)
		}
	}
	if len(plan.Admissible) >= v.NumFrames() {
		t.Fatal("image removal removed nothing")
	}
}

func TestApplyRejectsOversizedSample(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	// The small corpus is dense daytime traffic: most frames contain a
	// person, so sampling everything after removal must fail.
	s := Setting{SampleFraction: 1, Restricted: []scene.Class{scene.Person}}
	if _, err := ApplyCtx(context.Background(), v, m, s, stats.NewStream(3)); err == nil {
		t.Fatal("oversized sample accepted")
	}
}

func TestApplyInvalidSetting(t *testing.T) {
	v := dataset.MustLoad("small")
	if _, err := ApplyCtx(context.Background(), v, detect.YOLOv4Sim(), Setting{SampleFraction: 2}, stats.NewStream(1)); err == nil {
		t.Fatal("invalid setting accepted")
	}
}

func TestAdmissibleFramesNoRestriction(t *testing.T) {
	v := dataset.MustLoad("small")
	frames, _ := AdmissibleFramesCtx(context.Background(), v, nil)
	if len(frames) != v.NumFrames() {
		t.Fatalf("unrestricted admissible pool = %d", len(frames))
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("admissible[%d] = %d", i, f)
		}
	}
}

func TestAdmissibleFramesMultiClass(t *testing.T) {
	v := dataset.MustLoad("small")
	both, _ := AdmissibleFramesCtx(context.Background(), v, []scene.Class{scene.Person, scene.Face})
	personOnly, _ := AdmissibleFramesCtx(context.Background(), v, []scene.Class{scene.Person})
	if len(both) > len(personOnly) {
		t.Fatal("restricting more classes admitted more frames")
	}
}

func TestSampleOutputs(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	plan, err := ApplyCtx(context.Background(), v, m, Setting{SampleFraction: 0.1, Resolution: 160}, stats.NewStream(5))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := SampleOutputsCtx(context.Background(), v, m, scene.Car, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(plan.Sampled) {
		t.Fatalf("outputs length %d, want %d", len(outs), len(plan.Sampled))
	}
	series, err := outputs.Full(context.Background(), v, m, scene.Car, 160)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range plan.Sampled {
		if outs[i] != series[idx] {
			t.Fatalf("output %d mismatch", i)
		}
	}
}

func TestNoiseInterventionValidation(t *testing.T) {
	m := detect.YOLOv4Sim()
	if err := (Setting{SampleFraction: 0.5, NoiseSigma: 0.1}).Validate(m); err != nil {
		t.Fatalf("valid noise setting rejected: %v", err)
	}
	if err := (Setting{SampleFraction: 0.5, NoiseSigma: -0.1}).Validate(m); err == nil {
		t.Fatal("negative noise accepted")
	}
	if err := (Setting{SampleFraction: 0.5, NoiseSigma: 0.9}).Validate(m); err == nil {
		t.Fatal("absurd noise accepted")
	}
	if (Setting{SampleFraction: 0.5, NoiseSigma: 0.1}).IsRandomOnly(m) {
		t.Fatal("noise addition is a non-random intervention")
	}
	if got := (Setting{SampleFraction: 0.5, NoiseSigma: 0.1}).String(); !strings.Contains(got, "noise=0.1") {
		t.Fatalf("String() = %q", got)
	}
}

func TestEffectiveVideoCachesAndDegrades(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	s := Setting{SampleFraction: 0.2, NoiseSigma: 0.25}
	nv := EffectiveVideo(v, s)
	if nv == v {
		t.Fatal("noised view is the original")
	}
	if EffectiveVideo(v, s) != nv {
		t.Fatal("noised view not cached")
	}
	if EffectiveVideo(v, Setting{SampleFraction: 0.2}) != v {
		t.Fatal("zero-noise setting should return the original")
	}
	// The noised view shares annotations but detects worse.
	if nv.NumFrames() != v.NumFrames() {
		t.Fatal("noised view lost frames")
	}
	var clean, noisy float64
	for i := 0; i < 200; i++ {
		clean += float64(detect.CountClass(m.DetectFrame(v, i, 320), scene.Car))
		noisy += float64(detect.CountClass(m.DetectFrame(nv, i, 320), scene.Car))
	}
	if noisy >= clean {
		t.Fatalf("heavy capture noise did not degrade detection: %v vs %v", noisy, clean)
	}
}

func TestSampleOutputsUsesNoisedView(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	stream := stats.NewStream(21)
	plan, err := ApplyCtx(context.Background(), v, m, Setting{SampleFraction: 0.1, NoiseSigma: 0.25}, stream)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := SampleOutputsCtx(context.Background(), v, m, scene.Car, plan)
	if err != nil {
		t.Fatal(err)
	}
	cleanPlan := *plan
	cleanPlan.Setting.NoiseSigma = 0
	clean, err := SampleOutputsCtx(context.Background(), v, m, scene.Car, &cleanPlan)
	if err != nil {
		t.Fatal(err)
	}
	var sumNoisy, sumClean float64
	for i := range noisy {
		sumNoisy += noisy[i]
		sumClean += clean[i]
	}
	if sumNoisy >= sumClean {
		t.Fatalf("noised outputs (%v) not below clean outputs (%v)", sumNoisy, sumClean)
	}
}
