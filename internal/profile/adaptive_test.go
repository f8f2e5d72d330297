package profile

import (
	"context"
	"testing"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func TestRunUntilValidation(t *testing.T) {
	s := testSpec(estimate.AVG)
	stream := stats.NewStream(1)
	if _, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0, 0.5, stream); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.2, 0, stream); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1, Resolution: 160}, 0.2, 0.5, stream); err == nil {
		t.Fatal("non-random setting accepted")
	}
	maxSpec := testSpec(estimate.MAX)
	if _, err := RunUntilCtx(context.Background(), maxSpec, degrade.Setting{SampleFraction: 1}, 0.2, 0.5, stream); err == nil {
		t.Fatal("MAX adaptive accepted")
	}
}

func TestRunUntilMeetsTarget(t *testing.T) {
	s := testSpec(estimate.AVG)
	res, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.35, 1, stats.NewStream(501))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("target not met within the full corpus: %+v", res)
	}
	if res.Estimate.ErrBound > 0.35 {
		t.Fatalf("stopped with bound %v above target", res.Estimate.ErrBound)
	}
	if res.FramesUsed >= s.Video.NumFrames() {
		t.Fatal("adaptive run used the whole corpus")
	}
	// The answer must actually be good: the any-time guarantee covers the
	// stopped estimate.
	audit, err := s.Audit(res.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Held {
		t.Fatalf("stopped bound %v below true error %v", res.Estimate.ErrBound, audit.TrueError)
	}
}

func TestRunUntilEasierTargetsStopEarlier(t *testing.T) {
	s := testSpec(estimate.AVG)
	loose, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.6, 1, stats.NewStream(503))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.3, 1, stats.NewStream(503))
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Met || !tight.Met {
		t.Fatalf("targets unmet: %+v %+v", loose, tight)
	}
	if loose.FramesUsed >= tight.FramesUsed {
		t.Fatalf("loose target used %d frames, tight used %d", loose.FramesUsed, tight.FramesUsed)
	}
}

func TestRunUntilBudgetExhaustion(t *testing.T) {
	s := testSpec(estimate.AVG)
	res, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.01, 0.02, stats.NewStream(507))
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("1% target met with a 2% budget — implausibly tight")
	}
	budget := int(float64(s.Video.NumFrames()) * 0.02)
	if res.FramesUsed != budget {
		t.Fatalf("used %d frames, budget %d", res.FramesUsed, budget)
	}
}

func TestRunUntilRespectsImageRemovalPool(t *testing.T) {
	// Adaptive runs with removal stay inside the admissible pool... but
	// removal is a non-random intervention, so it must be rejected.
	s := testSpec(estimate.AVG)
	setting := degrade.Setting{SampleFraction: 1, Restricted: []scene.Class{scene.Face}}
	if _, err := RunUntilCtx(context.Background(), s, setting, 0.3, 0.5, stats.NewStream(509)); err == nil {
		t.Fatal("image-removal adaptive run accepted")
	}
}

func TestRunUntilCount(t *testing.T) {
	s := testSpec(estimate.COUNT)
	res, err := RunUntilCtx(context.Background(), s, degrade.Setting{SampleFraction: 1}, 0.2, 1, stats.NewStream(511))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("COUNT target unmet: %+v", res)
	}
	audit, err := s.Audit(res.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Held {
		t.Fatalf("COUNT stopped bound %v below true error %v", res.Estimate.ErrBound, audit.TrueError)
	}
}
