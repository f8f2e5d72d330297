// Command smokeload drives load scenarios against a smokescreend fleet
// and reports throughput, latency percentiles, and the fleet's dedup and
// coordination counters as JSON.
//
// Two modes:
//
//	-mode inprocess (default) stands up an N-node in-process fleet on
//	loopback listeners with the synthetic generator — the same harness
//	TestFleetHotKeyHerd and TestFleetSteadyMixed use — and runs the requested
//	scenarios against it. The generator's invocation counters give
//	ground truth for the dedup invariants (a hot-key herd must cost
//	exactly one generation fleet-wide), and violations exit non-zero.
//
//	-mode urls drives REAL daemons (started elsewhere, e.g. by
//	scripts/fleet_smoke.sh) listed in -urls. It runs the herd and
//	steady shapes with a real query and reports client-side results
//	plus fleet metric deltas scraped from each node's /metrics.
//
// Usage:
//
//	smokeload [-mode inprocess] [-scenario all|herd|kill|cancel|steady]
//	          [-nodes 3] [-clients 32] [-keys 16] [-requests 50]
//	          [-gen-delay 20ms] [-payload 4096] [-json]
//	smokeload -mode urls -urls http://h1:p1,http://h2:p2 [-scenario herd]
//	          [-clients 8] [-query "SELECT ..."] [-step 0.05]
//	          [-max-fraction 0.1] [-json]
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
	mode := flag.String("mode", "inprocess", "inprocess (harness fleet) or urls (real daemons)")
	scenario := flag.String("scenario", "all", "herd, kill, cancel, steady, or all")
	nodes := flag.Int("nodes", 3, "inprocess: fleet size")
	clients := flag.Int("clients", 32, "concurrent clients for herd/steady")
	keys := flag.Int("keys", 16, "steady: key population")
	requests := flag.Int("requests", 50, "steady: requests per client")
	genDelay := flag.Duration("gen-delay", 20*time.Millisecond, "inprocess: synthetic generation hold time")
	payload := flag.Int("payload", 4096, "inprocess: synthetic artifact bytes")
	urls := flag.String("urls", "", "urls mode: comma-separated daemon base URLs")
	query := flag.String("query", "SELECT AVG(count(car)) FROM small", "urls mode: profile query")
	step := flag.Float64("step", 0.05, "urls mode: profile step")
	maxFraction := flag.Float64("max-fraction", 0.1, "urls mode: profile max fraction")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	asJSON := flag.Bool("json", false, "emit results as a JSON array instead of text")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var results []fleetd.LoadResult
	var err error
	switch *mode {
	case "inprocess":
		results, err = runInprocess(ctx, inprocessOpts{
			scenario: *scenario, nodes: *nodes, clients: *clients,
			keys: *keys, requests: *requests, genDelay: *genDelay,
			payload: *payload,
		})
	case "urls":
		results, err = runURLs(ctx, urlsOpts{
			scenario: *scenario, urls: fleetd.ParseNodes(*urls),
			clients: *clients, requests: *requests,
			query: *query, step: *step, maxFraction: *maxFraction,
		})
	default:
		fmt.Fprintf(os.Stderr, "smokeload: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
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

type inprocessOpts struct {
	scenario                string
	nodes, clients          int
	keys, requests, payload int
	genDelay                time.Duration
}

func runInprocess(ctx context.Context, o inprocessOpts) ([]fleetd.LoadResult, error) {
	dir, err := os.MkdirTemp("", "smokeload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h, err := fleetd.StartHarness(fleetd.HarnessConfig{
		Nodes:        o.nodes,
		GenDelay:     o.genDelay,
		PayloadBytes: o.payload,
		Dir:          dir,
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()

	want := func(name string) bool { return o.scenario == "all" || o.scenario == name }
	var results []fleetd.LoadResult
	add := func(res fleetd.LoadResult, err error) error {
		results = append(results, res)
		return err
	}
	if want("herd") {
		res, err := h.RunHotKeyHerd(ctx, o.clients, "herd-hot-key")
		if err := add(res, err); err != nil {
			return results, err
		}
		if res.Generations != 1 {
			return results, fmt.Errorf("herd: %d generations fleet-wide, want exactly 1", res.Generations)
		}
	}
	if want("steady") {
		res, err := h.RunSteady(ctx, o.clients, o.keys, o.requests, "steady")
		if err := add(res, err); err != nil {
			return results, err
		}
		if res.Generations != o.keys {
			return results, fmt.Errorf("steady: %d generations for %d keys, want one each", res.Generations, o.keys)
		}
	}
	// Disruption scenarios run LAST: kill shrinks the fleet.
	if want("cancel") {
		if err := add(h.RunCancelPropagation(ctx)); err != nil {
			return results, err
		}
	}
	if want("kill") {
		res, err := h.RunKillDuringGeneration(ctx)
		if err := add(res, err); err != nil {
			return results, err
		}
		if res.Generations > 2 {
			return results, fmt.Errorf("kill: %d generations of one key, want at most 2 (victim + survivor)", res.Generations)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("unknown -scenario %q", o.scenario)
	}
	return results, nil
}

type urlsOpts struct {
	scenario          string
	urls              []string
	clients, requests int
	query             string
	step, maxFraction float64
}

// runURLs drives real daemons with the harness's own load driver. No
// ground-truth generation counters here — the daemons are separate
// processes — so the report carries client-side results plus /metrics
// deltas; scripts assert on those.
func runURLs(ctx context.Context, o urlsOpts) ([]fleetd.LoadResult, error) {
	if len(o.urls) == 0 {
		return nil, fmt.Errorf("urls mode requires -urls")
	}
	d := fleetd.NewDriver(nil, nil)
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
		return nil, fmt.Errorf("urls mode supports -scenario herd, steady, or all (got %q)", o.scenario)
	}
	return results, nil
}
