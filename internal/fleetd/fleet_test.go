package fleetd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"smokescreen/internal/estimate"
	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// startFleet stands up a 3-node in-process fleet with the Node's default
// settings; scenarios that observe in-flight work set a GenDelay.
func startFleet(t *testing.T, cfg HarnessConfig) *Harness {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Logf == nil && testing.Verbose() {
		cfg.Logf = t.Logf
	}
	h, err := StartHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestFleetHotKeyHerd is the tentpole invariant: a thundering herd on
// one key costs exactly ONE generation fleet-wide, whether it enters at
// every node or only at nodes that must route it to the key's first
// replica. Each row runs on a fresh fleet.
func TestFleetHotKeyHerd(t *testing.T) {
	everyNode := func(*Ring, string, *HarnessNode) bool { return true }
	rows := []struct {
		name, query string
		hold        time.Duration
		entry       func(ring *Ring, key string, hn *HarnessNode) bool
	}{
		{"every node", "herd-query", 50 * time.Millisecond, everyNode},
		{"non-owner replicas only", "herd-non-owner", 50 * time.Millisecond, func(ring *Ring, key string, hn *HarnessNode) bool {
			reps := ring.Replicas(key)
			return hn.Name != reps[0] && slices.Contains(reps, hn.Name)
		}},
		// The herd drill: `make herd-drill` runs this row 200 times. A
		// short hold races the herd's store reads against the finishing
		// job — before PR 24 about one run in 30 cost two generations.
		{"drill", "herd-hot-key", 5 * time.Millisecond, everyNode},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := startFleet(t, HarnessConfig{GenDelay: row.hold})
			ctx := testCtx(t)
			key := SyntheticKey(row.query)
			var urls []string
			for _, hn := range h.Alive() {
				if row.entry(h.Ring(), key, hn) {
					urls = append(urls, hn.URL)
				}
			}
			res, err := h.Herd(ctx, urls, 48, server.GenRequest{Query: row.query})
			if err != nil {
				t.Fatal(err)
			}
			if res.Generations != 1 {
				t.Fatalf("herd cost %d generations, want exactly 1", res.Generations)
			}
			if got := h.Counter.Key(key); got != 1 {
				t.Fatalf("invocation counter for the hot key = %d, want 1", got)
			}
			// All 48 responses must carry the same artifact; spot-check
			// via GET through every node.
			var want []byte
			for _, hn := range h.Alive() {
				status, body, err := h.Get(ctx, hn.URL, key)
				if err != nil || status != http.StatusOK {
					t.Fatalf("GET via %s: %d %v", hn.Name, status, err)
				}
				if want == nil {
					want = body
				} else if string(body) != string(want) {
					t.Fatal("nodes serve different bytes for one key")
				}
			}
		})
	}
}

// TestFleetForwardingAndReplication: a POST through a non-replica node
// is forwarded, the artifact lands on every replica's disk, and GETs
// through any node return it.
func TestFleetForwardingAndReplication(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)
	ring := h.Ring()

	// Find a query whose replica set excludes some node (guaranteed with
	// 3 nodes, R=2).
	var queryText, outsider string
	for i := 0; i < 256 && outsider == ""; i++ {
		q := fmt.Sprintf("fwd-%d", i)
		key := SyntheticKey(q)
		for _, hn := range h.Alive() {
			if !ring.IsReplica(key, hn.Name) {
				queryText, outsider = q, hn.Name
				break
			}
		}
	}
	if outsider == "" {
		t.Fatal("no non-replica node found")
	}
	key := SyntheticKey(queryText)

	status, body, err := h.Post(ctx, h.URLFor(outsider), server.GenRequest{Query: queryText})
	if err != nil {
		t.Fatal(err)
	}
	_ = body
	if status != http.StatusOK {
		t.Fatalf("forwarded POST returned %d", status)
	}

	// The outsider forwarded (counter) and did NOT generate.
	m, err := h.ScrapeNode(ctx, h.URLFor(outsider))
	if err != nil {
		t.Fatal(err)
	}
	if m["smokescreend_fleet_forwards_total"] == 0 {
		t.Fatal("outsider served a POST for a key it does not replicate without forwarding")
	}
	if h.Counter.NodeFor(key) == outsider {
		t.Fatal("outsider generated a key it does not replicate")
	}

	// Every replica holds the artifact on its own disk (write fan-out).
	for _, hn := range h.Nodes() {
		if !ring.IsReplica(key, hn.Name) {
			continue
		}
		if _, err := hn.Store.GetEnvelope(key); err != nil {
			t.Fatalf("replica %s missing envelope after fan-out: %v", hn.Name, err)
		}
	}

	// GET through every node returns the artifact.
	for _, hn := range h.Alive() {
		status, _, err := h.Get(ctx, hn.URL, key)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET via %s: %d %v", hn.Name, status, err)
		}
	}
}

// TestFleetKillDuringGeneration: the key's first replica dies mid-
// generation, and a survivor's re-POST, with the Node's default settings,
// is answered within a second — the dead node costs a refused connect and
// the survivor's own generation, nothing more — for at most two
// generations of the key in all.
func TestFleetKillDuringGeneration(t *testing.T) {
	h := startFleet(t, HarnessConfig{GenDelay: 300 * time.Millisecond})
	ctx := testCtx(t)

	const query = "kill-target"
	key := SyntheticKey(query)
	reps := h.Ring().Replicas(key)
	victim, survivor := reps[0], reps[1]

	// First POST: blocks in the victim's slow generation. Its outcome is
	// ignored: this request is supposed to die with its node.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		_, _, _ = h.Post(ctx, h.URLFor(victim), server.GenRequest{Query: query})
	}()
	for h.Counter.Key(key) == 0 {
		select {
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if got := h.Counter.NodeFor(key); got != victim {
		t.Fatalf("expected the first replica %s to generate %s, got %s", victim, key, got)
	}
	h.Kill(victim)
	<-firstDone

	// Recovery POST: the survivor routes past the dead node and generates.
	t0 := time.Now()
	status, _, err := h.Post(ctx, h.URLFor(survivor), server.GenRequest{Query: query})
	if elapsed := time.Since(t0); err != nil || status != http.StatusOK {
		t.Fatalf("recovery POST: %d %v", status, err)
	} else if elapsed >= time.Second {
		t.Fatalf("the survivor's re-POST took %v, want under 1 s", elapsed)
	}
	if got := h.Counter.Key(key); got > 2 {
		t.Fatalf("kill scenario cost %d generations, want at most 2 (victim + survivor)", got)
	}

	// A new key whose first replica is the dead node: a herd on the
	// survivors fails over to the key's first live replica, once.
	next := ""
	for i := 0; i < 256 && next == ""; i++ {
		if q := fmt.Sprintf("after-kill-%d", i); h.Ring().Replicas(SyntheticKey(q))[0] == victim {
			next = q
		}
	}
	if next == "" {
		t.Fatal("no key placed first on the dead node")
	}
	res, err := h.Herd(ctx, h.aliveURLs(), 24, server.GenRequest{Query: next})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 1 {
		t.Fatalf("a herd on the survivors cost %d generations, want exactly 1", res.Generations)
	}
}

// TestFleetReadRepair corrupts one replica's on-disk envelope; a fleet
// GET through that replica returns the good bytes AND rewrites the
// corrupt shard from a peer. Concurrent GETs coalesce onto one repair.
func TestFleetReadRepair(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)
	ring := h.Ring()

	queryText := "repair-me"
	key := SyntheticKey(queryText)
	reps := ring.Replicas(key)
	status, want, err := h.Post(ctx, h.Alive()[0].URL, server.GenRequest{Query: queryText})
	if err != nil || status != http.StatusOK {
		t.Fatalf("seed POST: %d %v", status, err)
	}

	// Corrupt the SECOND replica's copy on disk (bit-flip inside the
	// payload so the checksum fails).
	var victim *HarnessNode
	for _, hn := range h.Nodes() {
		if hn.Name == reps[1] {
			victim = hn
		}
	}
	if victim == nil {
		t.Fatalf("replica %s not found in harness", reps[1])
	}
	env, err := victim.Store.GetEnvelope(key)
	if err != nil {
		t.Fatal(err)
	}
	path := victim.Store.EnvelopePath(key)
	bad := append([]byte(nil), env...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the replica's cached payload: the corruption models bit rot
	// found after a restart, not a hot cache papering over it.
	victim.Store.Invalidate(key)
	if _, err := victim.Store.GetEnvelope(key); err == nil {
		t.Fatal("corruption did not take")
	}

	// Concurrent GETs straight at the corrupted replica: all must get
	// the good bytes.
	const readers = 12
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := h.Get(ctx, victim.URL, key)
			if err != nil {
				errs <- err
				return
			}
			if status != http.StatusOK {
				errs <- fmt.Errorf("GET returned %d", status)
				return
			}
			if string(body) != string(want) {
				errs <- fmt.Errorf("repaired read returned wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The corrupt shard was rewritten with verified bytes.
	healed, err := victim.Store.GetEnvelope(key)
	if err != nil {
		t.Fatalf("shard not healed: %v", err)
	}
	if string(healed) != string(env) {
		t.Fatal("healed envelope differs from the original")
	}
	m, err := h.ScrapeNode(ctx, victim.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["smokescreend_fleet_repairs_total"]; got < 1 {
		t.Fatalf("repairs_total = %d, want >= 1", got)
	}
	if h.Counter.Key(key) != 1 {
		t.Fatalf("repair triggered regeneration: %d generations", h.Counter.Key(key))
	}
}

// TestFleetCancelPropagation: an async job started through one node is
// canceled through another; the cancel crosses the fleet by job-id
// prefix routing, and a poll through a third node sees it canceled.
func TestFleetCancelPropagation(t *testing.T) {
	h := startFleet(t, HarnessConfig{GenDelay: 2 * time.Second})
	ctx := testCtx(t)
	nodes := h.Alive()
	call := func(method, url string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		status, _, body, err := h.do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		return status, body
	}

	status, body, err := h.Post(ctx, nodes[0].URL, server.GenRequest{Query: "cancel-target", Async: true})
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("async POST returned %d (%v)", status, err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		t.Fatalf("async POST returned no job id: %v", err)
	}

	// Cancel through the last node: at least one of (POST entry, DELETE
	// entry) is not the job's owner, so the proxy path is exercised.
	if status, _ := call(http.MethodDelete, nodes[2].URL+"/v1/jobs/"+job.ID); status != http.StatusOK {
		t.Fatalf("cross-node DELETE returned %d", status)
	}

	// Poll through yet another entry point until the job is terminal.
	for {
		status, body := call(http.MethodGet, nodes[1].URL+"/v1/jobs/"+job.ID)
		if status != http.StatusOK {
			t.Fatalf("cross-node job poll returned %d", status)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "canceled":
			return
		case "done", "failed":
			t.Fatalf("job ended %q, want canceled", st.State)
		}
		select {
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestFleetStreamIDsRouteToTheirNode: a stream id carries the prefix of
// the node that minted it, so a GET or DELETE of node 0's stream sent to
// node 1 reaches node 0's stream, and node 1's own stream keeps running.
func TestFleetStreamIDsRouteToTheirNode(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)
	nodes := h.Alive()
	call := func(method, url string, body []byte, want int) server.StreamStatus {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		status, _, respBody, err := h.do(req)
		if err != nil || status != want {
			t.Fatalf("%s %s = %d (%v): %s, want %d", method, url, status, err, respBody, want)
		}
		var st server.StreamStatus
		if err := json.Unmarshal(respBody, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	start := func(hn *HarnessNode, query string) server.StreamStatus {
		t.Helper()
		body, err := json.Marshal(server.StreamRequest{Query: query, Loops: 100000, DisableDrift: true})
		if err != nil {
			t.Fatal(err)
		}
		return call(http.MethodPost, hn.URL+"/v1/streams", body, http.StatusAccepted)
	}
	s0 := start(nodes[0], "SELECT AVG(count(car)) FROM small SAMPLE 0.001")
	s1 := start(nodes[1], "SELECT SUM(count(car)) FROM small SAMPLE 0.001")

	if got := call(http.MethodGet, nodes[1].URL+"/v1/streams/"+s0.ID, nil, http.StatusOK); got.ID != s0.ID || got.Query != s0.Query {
		t.Fatalf("GET of node 0's stream %s through node 1 answered %s (%s), want node 0's (%s)", s0.ID, got.ID, got.Query, s0.Query)
	}
	call(http.MethodDelete, nodes[1].URL+"/v1/streams/"+s0.ID, nil, http.StatusOK)
	for st := s0; st.State != server.JobCanceled; {
		if st.State != server.JobRunning {
			t.Fatalf("node 0's stream ended %q, want canceled", st.State)
		}
		select {
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
		st = call(http.MethodGet, nodes[0].URL+"/v1/streams/"+s0.ID, nil, http.StatusOK)
	}
	if st := call(http.MethodGet, nodes[1].URL+"/v1/streams/"+s1.ID, nil, http.StatusOK); st.State != server.JobRunning {
		t.Fatalf("node 1's stream is %q after a DELETE of node 0's, want running", st.State)
	}
}

// TestFleetRingEndpoint: every node reports the identical ring.
func TestFleetRingEndpoint(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)

	var first ringStatus
	for i, hn := range h.Alive() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, hn.URL+"/v1/ring", nil)
		if err != nil {
			t.Fatal(err)
		}
		status, _, body, err := h.do(req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("GET /v1/ring via %s: %d %v", hn.Name, status, err)
		}
		var rs ringStatus
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatal(err)
		}
		if rs.Self != hn.Name {
			t.Fatalf("node %s reports self %s", hn.Name, rs.Self)
		}
		if rs.VNodes != 64 || rs.Replicas != DefaultReplicas {
			t.Fatalf("ring parameters: %+v", rs)
		}
		if i == 0 {
			first = rs
		} else if fmt.Sprint(rs.Nodes) != fmt.Sprint(first.Nodes) {
			t.Fatalf("node sets differ: %v vs %v", rs.Nodes, first.Nodes)
		}
	}
}

// TestFleetMetricsExposition: the fleet block renders on every node with
// the gauges the dashboards key on, alongside the inner daemon's block.
func TestFleetMetricsExposition(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)

	// Generate one artifact so counters move.
	if status, _, err := h.Post(ctx, h.Alive()[0].URL, server.GenRequest{Query: "metrics-seed"}); err != nil || status != http.StatusOK {
		t.Fatalf("seed POST: %d %v", status, err)
	}

	var replicaWrites int64
	for _, hn := range h.Alive() {
		m, err := h.ScrapeNode(ctx, hn.URL)
		if err != nil {
			t.Fatal(err)
		}
		replicaWrites += m["smokescreend_fleet_replica_writes_total"]
		for _, name := range []string{
			"smokescreend_fleet_forwards_total",
			"smokescreend_fleet_forwards_coalesced_total",
			"smokescreend_fleet_entry_hits_total",
			"smokescreend_fleet_entry_admits_total",
			"smokescreend_fleet_repairs_total",
			"smokescreend_fleet_replica_writes_total",
			"smokescreend_fleet_ring_nodes",
			"smokescreend_fleet_ring_vnodes",
			"smokescreend_fleet_ring_replicas",
			// And the inner daemon's block must still be present.
			"smokescreend_http_requests_total",
			"smokescreend_store_puts_total",
		} {
			if _, ok := m[name]; !ok {
				t.Errorf("node %s: metric %s missing", hn.Name, name)
			}
		}
		if m["smokescreend_fleet_ring_nodes"] != 3 || m["smokescreend_fleet_ring_vnodes"] != 64 {
			t.Errorf("ring_nodes = %d, ring_vnodes = %d, want 3 and 64", m["smokescreend_fleet_ring_nodes"], m["smokescreend_fleet_ring_vnodes"])
		}
	}
	if replicaWrites < 1 {
		t.Errorf("no replica writes recorded after a generation")
	}
}

// TestFleetSteadyMixed exercises the steady-state scenario end to end
// over the population steady-0 .. steady-7. Placement depends on the
// nodes' ephemeral ports, so the entry sequence is rotated to start at a
// node that is not a replica of key 0: that warm POST — a new key entering
// at a non-replica — is the one request that must forward, in every run
// rather than in all but (R/N)^keys of them.
func TestFleetSteadyMixed(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)

	const keys = 8
	population := make([]server.GenRequest, keys)
	for i := range population {
		population[i].Query = fmt.Sprintf("steady-%d", i)
	}
	urls := h.aliveURLs()
	first := h.Ring().Replicas(SyntheticKey(population[0].Query))
	for i, hn := range h.Alive() {
		if !slices.Contains(first, hn.Name) {
			urls = slices.Concat(urls[i:], urls[:i])
			break
		}
	}
	res, err := h.Steady(ctx, urls, 4, 24, population)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("steady run had %d errors of %d requests", res.Errors, res.Requests)
	}
	if res.Generations != keys {
		t.Fatalf("steady run cost %d generations for %d keys, want one each", res.Generations, keys)
	}
	if res.Forwards == 0 {
		t.Fatal("no forwards in a mixed run — routing layer inert?")
	}
	if res.LocalRequests == 0 {
		t.Fatal("no local requests in a mixed run")
	}
	// Reads through a non-replica cost one envelope pull per (node, key)
	// and are answered in place after that.
	if res.EntryAdmits == 0 || res.EntryHits == 0 {
		t.Fatalf("entry nodes served no verified copies: %d admits, %d hits", res.EntryAdmits, res.EntryHits)
	}
	if res.EntryAdmits > keys {
		t.Fatalf("%d envelope pulls for %d keys with one non-replica each", res.EntryAdmits, keys)
	}
}

// TestNodeConfigValidation pins constructor errors.
func TestNodeConfigValidation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen := &SyntheticGenerator{}
	if _, err := NewNode(Config{Nodes: []string{"a"}, Self: "a"}); err == nil {
		t.Fatal("missing store/generator must be rejected")
	}
	if _, err := NewNode(Config{Nodes: []string{"a", "b"}, Self: "c", Store: st, Generator: gen}); err == nil {
		t.Fatal("self outside the node set must be rejected")
	}
	n, err := NewNode(Config{Nodes: []string{"a", "b"}, Self: "a", Store: st, Generator: gen})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Self() != "a" {
		t.Fatalf("Self = %q", n.Self())
	}
}

// TestFleetVersionSkewUnknownField: a request from a newer client
// carrying a field this build does not know must be rejected with a
// typed 400 on every node — including the non-replica forwarding edge —
// never silently truncated into a different (wrong, and then cached
// forever) artifact.
func TestFleetVersionSkewUnknownField(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)

	skewed := []byte(`{"query": "skew-query", "tier_overrides": {"full": 0.5}}`)
	for _, hn := range h.Alive() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hn.URL+"/v1/profiles", bytes.NewReader(skewed))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		status, _, body, err := h.do(req)
		if err != nil {
			t.Fatalf("POST via %s: %v", hn.Name, err)
		}
		if status != http.StatusBadRequest {
			t.Fatalf("POST via %s: status %d, want 400", hn.Name, status)
		}
		var resp struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("POST via %s: non-JSON error body %q", hn.Name, body)
		}
		if resp.Code != "unknown_field" {
			t.Fatalf("POST via %s: code %q, want unknown_field (body %s)", hn.Name, resp.Code, body)
		}
	}
	// Nothing was generated or cached under the skewed request's key.
	if got := h.Counter.Total(); got != 0 {
		t.Fatalf("skewed requests triggered %d generations, want 0", got)
	}
	// The same request without the unknown field is accepted: the strict
	// decoder rejects skew, not the request shape.
	status, _, err := h.Post(ctx, h.Alive()[0].URL, server.GenRequest{Query: "skew-query"})
	if err != nil || status != http.StatusOK {
		t.Fatalf("clean request rejected: %d %v", status, err)
	}
}

// degenerateGenerator keys like a real generator but fails every
// generation the way profile.SaveProfile does for an unbounded point.
type degenerateGenerator struct{ SyntheticGenerator }

func (g *degenerateGenerator) Generate(context.Context, server.GenRequest) ([]byte, error) {
	return nil, fmt.Errorf("profile: sealing the point: %w", estimate.ErrDegenerateCorrection)
}

// TestFleetRelaysDegenerateCorrection: a request with no finite answer is
// the same typed 422 through every node of a fleet — the replica that ran
// the job and the non-replica edges that forwarded to it — and no node
// stores or replicates anything under its key.
func TestFleetRelaysDegenerateCorrection(t *testing.T) {
	const fleetSize = 3
	var listeners []net.Listener
	var names []string
	for i := 0; i < fleetSize; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		names = append(names, ln.Addr().String())
	}
	var stores []*store.Store
	for i, name := range names {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Self: name, Nodes: names, Replicas: 2, Store: st, Generator: &degenerateGenerator{},
			Server: server.Config{RequestTimeout: 30 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: node.Handler()}
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			_ = srv.Serve(ln)
		}(listeners[i])
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
			node.Close()
		})
		stores = append(stores, st)
	}

	ctx := testCtx(t)
	body := []byte(`{"query":"degenerate-query"}`)
	for _, name := range names {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+name+"/v1/profiles", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST via %s: %v", name, err)
		}
		var got struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST via %s: undecodable error body: %v", name, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || got.Code != "degenerate_correction" {
			t.Fatalf("POST via %s: status %d code %q (%s), want 422 degenerate_correction", name, resp.StatusCode, got.Code, got.Error)
		}
	}
	key := SyntheticKey("degenerate-query")
	for i, st := range stores {
		if _, err := st.Get(key); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("node %s holds an artifact for the degenerate key: %v", names[i], err)
		}
	}
}

// TestFleetOversizeBodyIs413: a fleet node bounds request bodies with the
// daemon's own reader, for the profiles it routes and the streams its
// inner daemon serves.
func TestFleetOversizeBodyIs413(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)
	body := []byte(`{"query":"` + strings.Repeat("a", 2<<20) + `"}`)
	for _, hn := range h.Alive() {
		for _, path := range []string{"/v1/profiles", "/v1/streams"} {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, hn.URL+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			status, _, _, err := h.do(req)
			if err != nil {
				t.Fatalf("POST %s via %s: %v", path, hn.Name, err)
			}
			if status != http.StatusRequestEntityTooLarge {
				t.Errorf("POST %s via %s with a 2 MiB body: %d, want 413", path, hn.Name, status)
			}
		}
	}
	if got := h.Counter.Total(); got != 0 {
		t.Fatalf("oversize requests triggered %d generations", got)
	}
}
