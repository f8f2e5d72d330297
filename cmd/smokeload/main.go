// Command smokeload drives load scenarios against a fleet of real
// smokescreend daemons (started elsewhere, e.g. by scripts/fleet_smoke.sh)
// listed in -urls. It runs the herd and steady shapes with a real query and
// reports throughput, latency percentiles, and the fleet's dedup and
// coordination counters — deltas scraped from each node's /metrics — as
// text or JSON.
//
// Usage:
//
//	smokeload -urls http://h1:p1,http://h2:p2 [-scenario all|herd|steady]
//	          [-clients 32] [-requests 50] [-query "SELECT ..."]
//	          [-step 0.05] [-max-fraction 0.1] [-timeout 5m] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"smokescreen/internal/fleetd"
	"smokescreen/internal/server"
)

func main() {
	scenario := flag.String("scenario", "all", "herd, steady, or all")
	clients := flag.Int("clients", 32, "concurrent clients for herd/steady")
	requests := flag.Int("requests", 50, "steady: requests per client")
	urls := flag.String("urls", "", "comma-separated daemon base URLs")
	query := flag.String("query", "SELECT AVG(count(car)) FROM small", "profile query")
	step := flag.Float64("step", 0.05, "profile step")
	maxFraction := flag.Float64("max-fraction", 0.1, "profile max fraction")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	asJSON := flag.Bool("json", false, "emit results as a JSON array instead of text")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	results, err := run(ctx, options{
		scenario: *scenario, urls: fleetd.ParseNodes(*urls),
		clients: *clients, requests: *requests,
		query: *query, step: *step, maxFraction: *maxFraction,
	})
	emit(results, *asJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smokeload: %v\n", err)
		os.Exit(1)
	}
}

func emit(results []fleetd.LoadResult, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(results)
		return
	}
	for _, r := range results {
		// entry-hit is the share of requests a non-replica entry node
		// answered from a verified copy instead of a second HTTP hop.
		entryHit := 0.0
		if r.Requests > 0 {
			entryHit = float64(r.EntryHits) / float64(r.Requests)
		}
		fmt.Printf("%-7s %6d req %3d err %8.1f req/s  p50 %7.2fms  p99 %7.2fms  gen %d  fwd %d coalesced %d local %d entry-hit %.3f (admits %d) repairs %d\n",
			r.Scenario, r.Requests, r.Errors, r.RequestsPerSec,
			r.P50Millis, r.P99Millis, r.Generations,
			r.Forwards, r.Coalesced, r.LocalRequests, entryHit, r.EntryAdmits, r.Repairs)
	}
}

type options struct {
	scenario          string
	urls              []string
	clients, requests int
	query             string
	step, maxFraction float64
}

// run drives real daemons with fleetd's load driver. No ground-truth
// generation counters here — the daemons are separate processes — so the
// report carries client-side results plus /metrics deltas; scripts assert
// on those.
func run(ctx context.Context, o options) ([]fleetd.LoadResult, error) {
	if len(o.urls) == 0 {
		return nil, fmt.Errorf("-urls is required")
	}
	d := fleetd.NewDriver(nil)
	defer d.Close()
	genReq := server.GenRequest{Query: o.query, Step: o.step, MaxFraction: o.maxFraction}

	want := func(name string) bool { return o.scenario == "all" || o.scenario == name }
	var results []fleetd.LoadResult
	if want("herd") {
		res, err := d.Herd(ctx, o.urls, o.clients, genReq)
		results = append(results, res)
		if err != nil {
			return results, err
		}
	}
	if want("steady") {
		// One warm key, then GETs with periodic re-POSTs.
		res, err := d.Steady(ctx, o.urls, o.clients, o.requests, []server.GenRequest{genReq})
		results = append(results, res)
		if err != nil {
			return results, err
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("unknown -scenario %q (want herd, steady, or all)", o.scenario)
	}
	return results, nil
}
