// Cityfleet demonstrates multi-camera deployments: two intersection
// cameras (the UA-DETRAC sequence pair) run under *different* intervention
// settings — one may only be touched at reduced resolution, the other only
// allows sparse sampling — and the central processor answers a city-wide
// average-cars query with a single combined error bound (stratified over
// the fleet with a union-bound risk split).
//
//	go run ./examples/cityfleet
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/multicam"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func main() {
	ctx := context.Background()
	model := smokescreen.YOLOv4Sim()
	camA := dataset.MustLoad("mvi-40771")
	camB := dataset.MustLoad("mvi-40775")
	params := smokescreen.DefaultParams()

	// Camera A's neighbourhood demands low resolution (informal privacy):
	// non-random intervention, so it carries a correction set — a fixed
	// 400 frames, because multicam has no front door that would size one by
	// the elbow the way core.System does for a single camera.
	specA := &profile.Spec{Video: camA, Model: model, Class: scene.Car, Agg: estimate.AVG, Params: params}
	corrA, err := profile.BuildCorrectionAt(specA, 400, stats.NewStream(1))
	if err != nil {
		log.Fatal(err)
	}

	city, err := multicam.New(
		multicam.Camera{
			Name:       "5th-and-main",
			Video:      camA,
			Model:      model,
			Setting:    degrade.Setting{SampleFraction: 0.4, Resolution: 320},
			Correction: corrA,
		},
		multicam.Camera{
			Name:    "riverside",
			Video:   camB,
			Model:   model,
			Setting: degrade.Setting{SampleFraction: 0.15}, // bandwidth-limited uplink
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	res, err := city.QueryCtx(ctx, estimate.AVG, scene.Car, nil, params, stats.NewStream(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city-wide average cars per frame: %.4f (error <= %.4f at %.0f%% confidence)\n",
		res.Estimate.Value, res.Estimate.ErrBound, (1-params.Delta)*100)
	for _, cam := range res.Cameras {
		fmt.Printf("  %-14s weight %.2f  answer %.4f  bound %.4f  (%d frames)\n",
			cam.Name, cam.Weight, cam.Estimate.Value, cam.Estimate.ErrBound, cam.Estimate.Sample)
	}

	// Demo-only verification against the exact fleet answer.
	audit, err := city.Audit(estimate.AVG, scene.Car, nil, res.Estimate, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact city-wide answer: %.4f (actual error %.4f, bound held: %v)\n",
		audit.Truth, audit.TrueError, audit.Held)
}
