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
// Note: this example profiles the full 19,463-frame night-street corpus
// and takes a couple of minutes on first run while detector outputs are
// computed.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"smokescreen"
	"smokescreen/internal/profile"
	"smokescreen/internal/stats"
)

func main() {
	// The maintenance department needs the TRUE error within 10%. Profile
	// bounds are conservative upper bounds (they carry the correction
	// set's own uncertainty, ~0.19 here), so the administrator calibrates
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

	// Resolution is a non-random intervention, so profile repair needs a
	// correction set; the elbow heuristic sizes it automatically.
	fmt.Println("constructing correction set (elbow heuristic)...")
	corr, err := profile.ConstructCorrectionCtx(context.Background(), spec, 0.2, stats.NewStream(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("correction set: %.0f%% of the corpus (err_b(v) = %.4f)\n\n",
		corr.Fraction*100, corr.Correction.Estimate.ErrBound)

	// Profile the resolution axis at a fixed generous sample fraction.
	fmt.Println("resolution tradeoff curve (f = 0.5):")
	type point struct {
		resolution int
		bound      float64
	}
	var curve []point
	root := stats.NewStream(11)
	for _, p := range spec.Model.Resolutions(10) {
		est, err := spec.EstimateSettingCtx(context.Background(), smokescreen.Setting{
			SampleFraction: 0.5,
			Resolution:     p,
		}, corr.Correction, root.Child(uint64(p)))
		if err != nil {
			log.Fatal(err)
		}
		curve = append(curve, point{p, est.ErrBound})
		marker := ""
		if est.ErrBound <= errorBudget {
			marker = "  <- within budget"
		}
		fmt.Printf("  %4dx%-4d err<=%.4f%s\n", p, p, est.ErrBound, marker)
	}

	// Harry picks the lowest resolution within the budget.
	chosen := 0
	for _, pt := range curve {
		if pt.bound <= errorBudget && (chosen == 0 || pt.resolution < chosen) {
			chosen = pt.resolution
		}
	}
	if chosen == 0 {
		log.Fatalf("no resolution satisfies the %.0f%% budget; relax the preference", errorBudget*100)
	}
	fmt.Printf("\nHarry configures the cameras to %dx%d.\n", chosen, chosen)

	// Run the production query under the chosen degradation.
	result, err := sys.ExecuteSetting(q, smokescreen.Setting{SampleFraction: 0.5, Resolution: chosen})
	if err != nil {
		log.Fatal(err)
	}
	truth, err := sys.GroundTruth(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average cars per frame: %.4f (bound %.4f)\n", result.Estimate.Value, result.Estimate.ErrBound)
	fmt.Printf("exact answer (demo only): %.4f, actual error %.4f — within the department's 10%% requirement: %v\n",
		truth,
		math.Abs(result.Estimate.Value-truth)/truth,
		math.Abs(result.Estimate.Value-truth)/truth <= 0.10)
}
