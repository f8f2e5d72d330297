// Profiletransfer demonstrates the Section 3.3.1 fallback: when the query
// video is too sensitive even for a correction set, generate the
// degradation-accuracy profile on a *visually similar* video captured by
// the same camera at another time, and use it to guide interventions on
// the sensitive one. The example reproduces the Section 5.3.2 comparison
// between video A (MVI_40771) and video B (MVI_40775).
//
//	go run ./examples/profiletransfer
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"smokescreen"
	"smokescreen/internal/profile"
)

func main() {
	ctx := context.Background()
	sys := smokescreen.New(smokescreen.WithSeed(5))
	// The two corpora have different lengths (1720 vs 975 frames), so the
	// sweep uses absolute sample *sizes*, like the paper's Section 5.3.2,
	// converting to per-video fractions.
	sizes := []int{50, 100, 200, 350, 500}
	fractionsFor := func(total int) []float64 {
		out := make([]float64, len(sizes))
		for i, s := range sizes {
			out[i] = float64(s) / float64(total)
		}
		return out
	}

	// The profile we WISH we could compute (needs access to video A).
	target, err := sys.SweepProfileCtx(ctx, mustQuery("SELECT AVG(count(car)) FROM mvi-40771 USING yolov4"),
		profile.SweepOptions{Fractions: fractionsFor(1720)})
	if err != nil {
		log.Fatal(err)
	}
	// The profile we actually compute: video B, same camera, other time.
	transferred, err := sys.TransferProfile(ctx, mustQuery("SELECT AVG(count(car)) FROM mvi-40771 USING yolov4"), "mvi-40775",
		profile.SweepOptions{Fractions: fractionsFor(975)})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("sample size   target (video A)   transferred (video B)   |diff|")
	var maxDiff float64
	for i := range target.Points {
		a := target.Points[i].Estimate.ErrBound
		b := transferred.Points[i].Estimate.ErrBound
		d := math.Abs(a - b)
		maxDiff = math.Max(maxDiff, d)
		fmt.Printf("%11d   %16.4f   %21.4f   %.4f\n", sizes[i], a, b, d)
	}
	fmt.Printf("\nmax profile difference: %.4f (paper: similar videos stay within ~5%%)\n", maxDiff)

	// Choose a tradeoff from the TRANSFERRED profile and check it against
	// the target's true behaviour. The chosen point is an absolute sample
	// size; convert it back to video A's fraction scale.
	const budget = 0.3
	setting, ok := transferred.ChooseFraction(budget)
	if !ok {
		log.Fatal("no sample size within budget on the transferred profile")
	}
	chosenSize := int(setting.SampleFraction*975 + 0.5)
	fmt.Printf("\nchosen from the transferred profile: %d frames\n", chosenSize)
	targetBound, err := target.BoundAtFraction(float64(chosenSize) / 1720)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video A's own bound at that size: %.4f (within budget %.2f: %v)\n",
		targetBound, budget, targetBound <= budget*1.2)
}

func mustQuery(s string) *smokescreen.Query {
	q, err := smokescreen.ParseQuery(s)
	if err != nil {
		log.Fatal(err)
	}
	return q
}
