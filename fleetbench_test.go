package smokescreen_test

// BenchmarkFleetServe* is the profile service's throughput baseline: each
// op runs one load scenario against a REAL 3-node in-process fleet
// (loopback listeners, pooled keep-alive forwarding, per-node stores)
// and reports requests/s, client-observed p50/p99, and the forwarded vs
// local split. The synthetic generator's invocation counters prove the
// dedup invariant inside the measurement itself: a hot-key herd op that
// costs more than one generation fleet-wide FAILS the bench rather than
// publishing a number that hides duplicated work.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"smokescreen/internal/fleetd"
	"smokescreen/internal/server"
)

func startBenchFleet(b *testing.B, genDelay time.Duration) *fleetd.Harness {
	b.Helper()
	h, err := fleetd.StartHarness(fleetd.HarnessConfig{
		Nodes:        3,
		LeaseTTL:     250 * time.Millisecond,
		ClaimPoll:    5 * time.Millisecond,
		GenDelay:     genDelay,
		PayloadBytes: 4096,
		Dir:          b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(h.Close)
	return h
}

// fleetTally accumulates scenario results across b.N ops and reports the
// family's shared metric set.
type fleetTally struct {
	requests, errors       int64
	forwards, local        int64
	coalesced              int64
	generations            int
	p50Sum, p99Sum, durSum float64
}

func (t *fleetTally) add(res fleetd.LoadResult) {
	t.requests += res.Requests
	t.errors += res.Errors
	t.forwards += res.Forwards
	t.local += res.LocalRequests
	t.coalesced += res.Coalesced
	t.generations += res.Generations
	t.p50Sum += res.P50Millis
	t.p99Sum += res.P99Millis
	t.durSum += res.DurationMillis
}

func (t *fleetTally) report(b *testing.B) {
	b.Helper()
	if t.errors > 0 {
		b.Fatalf("%d/%d requests failed", t.errors, t.requests)
	}
	n := float64(b.N)
	if t.durSum > 0 {
		b.ReportMetric(float64(t.requests)/(t.durSum/1000), "req/s")
	}
	b.ReportMetric(t.p50Sum/n, "p50-ms")
	b.ReportMetric(t.p99Sum/n, "p99-ms")
	b.ReportMetric(float64(t.generations)/n, "generations/op")
	b.ReportMetric(float64(t.forwards)/n, "forwards/op")
	b.ReportMetric(float64(t.local)/n, "local-requests/op")
	if routed := t.forwards + t.local; routed > 0 {
		b.ReportMetric(float64(t.forwards)/float64(routed), "forwarded-ratio")
	}
}

// BenchmarkFleetServeHotKey: 48 concurrent cold POSTs of ONE key per op,
// spread across all three nodes. The entire herd must collapse to exactly
// one generation fleet-wide (routing singleflight + lease + jobSet); the
// op fails otherwise.
func BenchmarkFleetServeHotKey(b *testing.B) {
	h := startBenchFleet(b, 5*time.Millisecond)
	ctx := context.Background()
	tally := &fleetTally{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.RunHotKeyHerd(ctx, 48, fmt.Sprintf("bench-herd-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Generations != 1 {
			b.Fatalf("herd op %d: %d generations fleet-wide, want exactly 1", i, res.Generations)
		}
		tally.add(res)
	}
	b.StopTimer()
	tally.report(b)
}

// BenchmarkFleetServeMixed: steady-state service shape — a 12-key
// population generated once per op, then 8 clients issuing 1 POST per 8
// GETs against rotating entry nodes. Exactly one generation per key; the
// forwarded ratio reflects ring placement (an entry node serves locally
// only when it replicates the key).
func BenchmarkFleetServeMixed(b *testing.B) {
	h := startBenchFleet(b, time.Millisecond)
	ctx := context.Background()
	const keys = 12
	tally := &fleetTally{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.RunSteady(ctx, 8, keys, 32, fmt.Sprintf("bench-mix-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Generations != keys {
			b.Fatalf("mixed op %d: %d generations for %d keys, want one each", i, res.Generations, keys)
		}
		tally.add(res)
	}
	b.StopTimer()
	tally.report(b)
}

// BenchmarkFleetServeLocalHit: pure warm GETs against the key's primary
// replica — the fleet's fast path. No forwarding, no generation; this is
// the per-request overhead the fleet layer adds over a bare smokescreend.
func BenchmarkFleetServeLocalHit(b *testing.B) {
	h := startBenchFleet(b, 0)
	ctx := context.Background()
	query := "bench-local-hit"
	key := fleetd.SyntheticKey(query)
	owner := h.Ring().Owner(key)
	ownerURL := h.URLFor(owner)
	if ownerURL == "" {
		b.Fatalf("owner %s not live", owner)
	}
	if status, _, err := h.Post(ctx, ownerURL, server.GenRequest{Query: query}); err != nil || status != 200 {
		b.Fatalf("warm POST: %d %v", status, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		status, body, err := h.Get(ctx, ownerURL, key)
		if err != nil || status != 200 || len(body) == 0 {
			b.Fatalf("GET: %d %v", status, err)
		}
	}
}
