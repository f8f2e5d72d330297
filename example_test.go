package smokescreen_test

// Godoc examples for the public API. These run as tests, so the documented
// flows are guaranteed to keep working; the fast "small" corpus keeps them
// quick.

import (
	"context"
	"fmt"

	"smokescreen"
)

// ExampleParseQuery shows the analytical query language.
func ExampleParseQuery() {
	q, err := smokescreen.ParseQuery(
		"SELECT AVG(count(car)) FROM small SAMPLE 0.2 RESOLUTION 160 REMOVE face")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Agg, q.Class, q.Dataset)
	fmt.Println(q.Setting)
	// Output:
	// AVG car small
	// f=0.2 p=160x160 c=face
}

// ExampleSystem_ExecuteCtx runs a query under its own interventions and
// reports the answer with a sound error bound.
func ExampleSystem_ExecuteCtx() {
	sys := smokescreen.New(smokescreen.WithSeed(42))
	q, err := smokescreen.ParseQuery("SELECT COUNT(*) FROM small WHERE count(car) >= 1 SAMPLE 0.5")
	if err != nil {
		panic(err)
	}
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		panic(err)
	}
	truth, err := sys.GroundTruth(q)
	if err != nil {
		panic(err)
	}
	withinBound := res.Estimate.ErrBound >= abs(res.Estimate.Value-truth)/truth
	fmt.Println("frames sampled:", res.Estimate.Sample, "of", res.Estimate.N)
	fmt.Println("true answer within the bound:", withinBound)
	// Output:
	// frames sampled: 600 of 1200
	// true answer within the bound: true
}

// ExampleSystem_ChooseTradeoff walks the two-stage administration
// procedure: generate profiles, then pick the most degraded setting inside
// the error budget.
func ExampleSystem_ChooseTradeoff() {
	sys := smokescreen.New(
		smokescreen.WithSeed(42),
		smokescreen.WithFractionCandidates(0.05, 0.2),
	)
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		panic(err)
	}
	profiles, err := sys.GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		panic(err)
	}
	setting, err := sys.ChooseTradeoff(profiles, smokescreen.Preferences{MaxError: 0.3})
	if err != nil {
		panic(err)
	}
	fmt.Println("a setting was chosen:", setting.SampleFraction > 0)
	// Output:
	// a setting was chosen: true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// ExampleSystem_ExecuteUntilCtx shows adaptive execution: sample frames until
// the any-time error bound reaches the target, touching as little video as
// possible.
func ExampleSystem_ExecuteUntilCtx() {
	sys := smokescreen.New(smokescreen.WithSeed(42))
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		panic(err)
	}
	res, err := sys.ExecuteUntilCtx(context.Background(), q, 0.4, 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Println("target met:", res.Met)
	fmt.Println("bound within target:", res.Estimate.ErrBound <= 0.4)
	fmt.Println("touched less than half the corpus:", res.FramesUsed*2 < res.Estimate.N)
	// Output:
	// target met: true
	// bound within target: true
	// touched less than half the corpus: true
}
