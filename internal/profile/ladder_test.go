package profile

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/stats"
)

func ladderCorrection(t *testing.T, spec *Spec) *estimate.Correction {
	t.Helper()
	res, err := ConstructCorrectionCtx(context.Background(), spec, 0.2, stats.NewStream(9).Child(1))
	if err != nil {
		t.Fatal(err)
	}
	return res.Correction
}

// TestGenerateLadderProfile: the default ladder yields one point per
// feasible tier in rung order, each non-random tier repaired, with finite
// bounds.
func TestGenerateLadderProfile(t *testing.T) {
	detect.ResetCaches()
	t.Cleanup(detect.ResetCaches)
	spec := testSpec(estimate.AVG)
	l := plan.DefaultLadder(spec.Model)
	prof, err := GenerateLadderCtx(context.Background(), spec, l, LadderOptions{Correction: ladderCorrection(t, spec)}, stats.NewStream(9).Child(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) == 0 || len(prof.Points) > len(l.Tiers) {
		t.Fatalf("%d points for a %d-tier ladder", len(prof.Points), len(l.Tiers))
	}
	byTier := map[string]Point{}
	for _, pt := range prof.Points {
		if pt.Tier == "" {
			t.Fatal("ladder point missing tier name")
		}
		byTier[pt.Tier] = pt
		if pt.Estimate.ErrBound <= 0 || pt.Estimate.ErrBound != pt.Estimate.ErrBound {
			t.Fatalf("tier %s bound %v not finite positive", pt.Tier, pt.Estimate.ErrBound)
		}
	}
	full, ok := byTier["full"]
	if !ok {
		t.Fatal("full tier missing from profile")
	}
	if full.Repaired {
		t.Error("random-only full tier marked repaired")
	}
	for _, name := range []string{"degraded", "privacy"} {
		if pt, ok := byTier[name]; ok && !pt.Repaired {
			t.Errorf("non-random tier %s not repaired", name)
		}
	}
}

// TestGenerateLadderRequiresCorrection: non-random tiers without a
// correction set are an error, not silently unsound bounds.
func TestGenerateLadderRequiresCorrection(t *testing.T) {
	spec := testSpec(estimate.AVG)
	_, err := GenerateLadderCtx(context.Background(), spec, plan.DefaultLadder(spec.Model), LadderOptions{}, stats.NewStream(9).Child(3))
	if err == nil || !strings.Contains(err.Error(), "correction") {
		t.Fatalf("err = %v, want correction-required error", err)
	}
}

// TestGenerateLadderDeterministicAcrossParallelism pins the satellite
// contract: ladder profile generation is bit-identical to sequential at
// any executor parallelism, down to the serialized bytes.
func TestGenerateLadderDeterministicAcrossParallelism(t *testing.T) {
	spec := testSpec(estimate.AVG)
	corr := ladderCorrection(t, spec)
	l := plan.DefaultLadder(spec.Model)

	generate := func(parallelism int) []byte {
		detect.ResetCaches()
		prof, err := GenerateLadderCtx(context.Background(), spec, l,
			LadderOptions{Correction: corr, Parallelism: parallelism}, stats.NewStream(9).Child(3))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveProfile(&buf, prof); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Cleanup(detect.ResetCaches)

	base := generate(1)
	for _, parallelism := range []int{0, 2, 4} {
		if got := generate(parallelism); !bytes.Equal(base, got) {
			t.Fatalf("ladder profile at parallelism %d differs from sequential:\nseq: %s\ngot: %s",
				parallelism, base, got)
		}
	}
}
