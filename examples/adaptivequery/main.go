// Adaptivequery demonstrates adaptive execution: instead of fixing a
// sample fraction up front, the system samples (and detects) frames one
// batch at a time until the any-time error bound reaches the target —
// touching as little video as the data allows. This is the stopping-rule
// usage the empirical Bernstein stopping literature (the paper's EBGS
// baseline) was built for, made sound under adaptive stopping by the
// any-time Hoeffding–Serfling schedule.
//
//	go run ./examples/adaptivequery
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
)

func main() {
	ctx := context.Background()
	sys := smokescreen.New(smokescreen.WithSeed(13))
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query:", q)
	fmt.Println()
	fmt.Println("target err   frames touched   answer    bound     met")
	for _, target := range []float64{0.6, 0.45, 0.3, 0.2} {
		res, err := sys.ExecuteUntilCtx(ctx, q, target, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.2f   %6d (%4.1f%%)   %.4f   %.4f   %v\n",
			target, res.FramesUsed,
			100*float64(res.FramesUsed)/float64(res.Estimate.N),
			res.Estimate.Value, res.Estimate.ErrBound, res.Met)
	}

	// Verify the tightest run against the exact answer (demo only).
	res, err := sys.ExecuteUntilCtx(ctx, q, 0.2, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	audit, err := sys.Audit(q, res.Estimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact answer %.4f; the 0.20-target run's actual error was %.4f (bound held: %v)\n",
		audit.Truth, audit.TrueError, audit.Held)
	fmt.Println("every reported bound held simultaneously (any-time guarantee),")
	fmt.Println("so stopping the moment the target was met did not invalidate it.")
}
