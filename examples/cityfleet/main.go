// Cityfleet demonstrates multi-camera deployments: two intersection
// cameras (the UA-DETRAC sequence pair) run under *different* intervention
// settings — one may only be touched at reduced resolution, the other only
// allows sparse sampling — and the central processor answers a city-wide
// average-cars query with a single combined error bound (stratified over
// the fleet with a union-bound risk split). A camera is a query: each row
// printed below is what `smokescreen query "<that query> CONFIDENCE 97.5"`
// prints, correction set included.
//
//	go run ./examples/cityfleet
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
	"smokescreen/internal/multicam"
)

func main() {
	cameras := []multicam.Camera{
		// Camera A's neighbourhood demands low resolution (informal
		// privacy): a non-random intervention, so the system repairs it.
		{Name: "5th-and-main", Query: mustParse("SELECT AVG(count(car)) FROM mvi-40771 SAMPLE 0.4 RESOLUTION 320")},
		// Camera B sits on a bandwidth-limited uplink.
		{Name: "riverside", Query: mustParse("SELECT AVG(count(car)) FROM mvi-40775 SAMPLE 0.15")},
	}
	city, err := multicam.New(smokescreen.New(), cameras...)
	if err != nil {
		log.Fatal(err)
	}

	res, err := city.QueryCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city-wide average cars per frame: %.4f (error <= %.4f at %.0f%% confidence)\n",
		res.Estimate.Value, res.Estimate.ErrBound, (1-cameras[0].Query.Delta)*100)
	for _, cam := range res.Cameras {
		fmt.Printf("  %-14s weight %.2f  answer %.4f  bound %.4f  (%d frames)\n",
			cam.Name, cam.Weight, cam.Estimate.Value, cam.Estimate.ErrBound, cam.Estimate.Sample)
	}

	// Demo-only verification against the exact fleet answer.
	audit, err := city.Audit(res.Estimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact city-wide answer: %.4f (actual error %.4f, bound held: %v)\n",
		audit.Truth, audit.TrueError, audit.Held)
}

func mustParse(text string) *smokescreen.Query {
	q, err := smokescreen.ParseQuery(text)
	if err != nil {
		log.Fatal(err)
	}
	return q
}
