// Quickstart: the documented five-line Smokescreen flow on the fast test
// corpus — parse a query, generate degradation-accuracy profiles, choose a
// tradeoff against a public preference, and execute the query under the
// chosen interventions.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
)

func main() {
	ctx := context.Background()
	sys := smokescreen.New(
		smokescreen.WithSeed(42),
		// Candidate design: sample fractions at 2% intervals up to 20%.
		smokescreen.WithFractionCandidates(0.02, 0.2),
	)

	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)

	// Stage 1 (paper Section 3.1): profile generation. The system builds
	// a correction set by the elbow heuristic and computes error bounds
	// for every intervention candidate.
	profiles, err := sys.GenerateProfilesCtx(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiles generated in %s with %d model invocations\n",
		profiles.Elapsed.Round(1e6), profiles.ModelInvocations)
	fmt.Printf("correction set: %.0f%% of the corpus\n\n", profiles.Correction.Fraction*100)

	// The administrator's first view: the error bound against the sample
	// fraction at native resolution with no image removal.
	fmt.Println("tradeoff curve (bound vs sample fraction):")
	bounds := profiles.Cube.SliceByFraction(0, 0)
	for fi, f := range profiles.Cube.Fractions {
		fmt.Printf("  f=%-5.2f err<=%.4f\n", f, bounds[fi])
	}

	// Stage 2: choosing a tradeoff. Public preference: at most 25% error.
	prefs := smokescreen.Preferences{MaxError: 0.25}
	setting, err := sys.ChooseTradeoff(profiles, prefs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchosen interventions for max error %.2f: %s\n", prefs.MaxError, setting)

	// Execute the query under the chosen degradation.
	result, err := sys.ExecuteSettingCtx(ctx, q, setting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate answer: %.4f (error <= %.4f, %d of %d frames touched)\n",
		result.Estimate.Value, result.Estimate.ErrBound, result.Estimate.Sample, result.Estimate.N)

	// For the demo only: verify against the exact answer. A production
	// deployment cannot do this — that is the whole point.
	audit, err := sys.Audit(q, result.Estimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact answer:       %.4f (actual error %.4f, bound held: %v)\n",
		audit.Truth, audit.TrueError, audit.Held)
}
