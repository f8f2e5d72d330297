// Trafficcount walks through the paper's running example (Examples 1-3):
// Harry, the public administrator, needs the average number of cars per
// frame on the night-street camera within 10% of the correct answer, while
// degrading the video as much as possible for privacy and energy reasons.
// Instead of guessing a resolution (Example 1's failure), he generates a
// degradation-accuracy profile along the resolution axis and picks the
// lowest resolution whose bound stays inside the budget (Example 2).
//
//	go run ./examples/trafficcount
//
// Note: this example profiles the full 19,463-frame night-street corpus;
// the detector work takes several seconds.
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
)

func main() {
	ctx := context.Background()
	// The maintenance department needs the TRUE error within 10%. Profile
	// bounds are conservative upper bounds (they carry the correction
	// set's own uncertainty, roughly 0.2 here), so the administrator calibrates
	// the threshold accordingly (paper Section 2.3: "administrators can
	// adjust the analytical accuracy threshold in the selection process").
	const errorBudget = 0.25

	sys := smokescreen.New(smokescreen.WithSeed(7))
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM night-street USING mask-rcnn")
	if err != nil {
		log.Fatal(err)
	}
	spec, err := sys.Resolve(q)
	if err != nil {
		log.Fatal(err)
	}

	// Profile the resolution axis at a fixed generous sample fraction.
	// Resolution is a non-random intervention, so the system repairs each
	// bound with a correction set it sizes by the elbow heuristic — the
	// same set behind the profile here and the production query below.
	fmt.Println("resolution tradeoff curve (f = 0.5):")
	chosen := 0
	for _, p := range spec.Model.Resolutions(10) {
		candidate := *q
		candidate.Setting.Resolution = p
		prof, err := sys.SweepProfileCtx(ctx, &candidate, smokescreen.SweepOptions{Fractions: []float64{0.5}})
		if err != nil {
			log.Fatal(err)
		}
		bound := prof.Points[0].Estimate.ErrBound
		marker := ""
		if bound <= errorBudget {
			marker = "  <- within budget"
			// Harry picks the lowest resolution within the budget.
			if chosen == 0 || p < chosen {
				chosen = p
			}
		}
		fmt.Printf("  %4dx%-4d err<=%.4f%s\n", p, p, bound, marker)
	}
	if chosen == 0 {
		log.Fatalf("no resolution satisfies the %.0f%% budget; relax the preference", errorBudget*100)
	}
	fmt.Printf("\nHarry configures the cameras to %dx%d.\n", chosen, chosen)

	// Run the production query under the chosen degradation.
	result, err := sys.ExecuteSettingCtx(ctx, q, smokescreen.Setting{SampleFraction: 0.5, Resolution: chosen})
	if err != nil {
		log.Fatal(err)
	}
	audit, err := sys.Audit(q, result.Estimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average cars per frame: %.4f (bound %.4f)\n", result.Estimate.Value, result.Estimate.ErrBound)
	fmt.Printf("exact answer (demo only): %.4f, actual error %.4f — within the department's 10%% requirement: %v\n",
		audit.Truth, audit.TrueError, audit.TrueError <= 0.10)
}
