package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// loneNode is a ring of one, the shape of a smokescreend started without
// -fleet-nodes, with a Driver pointed at it.
type loneNode struct {
	*Driver
	url     string
	store   *store.Store
	counter *GenCounter
}

func startLoneNode(t *testing.T) *loneNode {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counter := NewGenCounter()
	n, err := NewNode(Config{
		Self:      "solo:8040",
		Nodes:     []string{"solo:8040"},
		Store:     st,
		Generator: &SyntheticGenerator{NodeName: "solo:8040", Counter: counter},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	d := NewDriver(counter.Total)
	t.Cleanup(func() {
		d.Close()
		ts.Close()
		_ = n.Close()
	})
	return &loneNode{Driver: d, url: ts.URL, store: st, counter: counter}
}

// send issues one request to the node and returns its status and body.
func (ln *loneNode) send(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(testCtx(t), method, ln.url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	status, _, respBody, err := ln.do(req)
	if err != nil {
		t.Fatal(err)
	}
	return status, respBody
}

// TestLoneNodeIsARingOfOne: a node whose ring holds only itself serves
// every key, reports itself as the whole ring, mints prefixed job ids, and
// has no envelope endpoint — no peer exists to call one, so neither a read
// nor a raw write of a stored envelope may reach its store.
func TestLoneNodeIsARingOfOne(t *testing.T) {
	ln := startLoneNode(t)
	ctx := testCtx(t)

	status, key, _, err := ln.post(ctx, ln.url, server.GenRequest{Query: "lone"})
	if err != nil || status != http.StatusOK || key == "" {
		t.Fatalf("POST = %d, key %q (%v)", status, key, err)
	}
	if got := ln.counter.Keys(); got != 1 {
		t.Fatalf("a POST to a lone node keyed %d times, want 1", got)
	}
	env, err := ln.store.GetEnvelope(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		if status, _ := ln.send(t, method, "/v1/internal/profiles/"+key, env); status != http.StatusNotFound {
			t.Errorf("%s /v1/internal/profiles/{key} = %d, want 404", method, status)
		}
	}

	status, body := ln.send(t, http.MethodGet, "/v1/ring", nil)
	var ring ringStatus
	if err := json.Unmarshal(body, &ring); err != nil || status != http.StatusOK {
		t.Fatalf("GET /v1/ring = %d %s (%v)", status, body, err)
	}
	if ring.Self != "solo:8040" || fmt.Sprint(ring.Nodes) != "[solo:8040]" || ring.Replicas != 1 {
		t.Fatalf("ring = %+v, want only solo:8040 at one replica", ring)
	}

	status, body = ln.send(t, http.MethodPost, "/v1/profiles", []byte(`{"query":"lone-async","async":true}`))
	var job server.JobStatus
	if err := json.Unmarshal(body, &job); err != nil || status != http.StatusAccepted {
		t.Fatalf("async POST = %d %s (%v)", status, body, err)
	}
	if !strings.HasPrefix(job.ID, nodePrefix("solo:8040")) {
		t.Fatalf("job id %q lacks the node prefix %q", job.ID, nodePrefix("solo:8040"))
	}

	m, err := ln.ScrapeNode(ctx, ln.url)
	if err != nil {
		t.Fatal(err)
	}
	// Six requests reached the node, this scrape included; each counts
	// once, whether the node or its server answered it.
	if m["smokescreend_http_requests_total"] != 6 || m["smokescreend_fleet_ring_nodes"] != 1 || m["smokescreend_fleet_forwards_total"] != 0 {
		t.Errorf("/metrics: http_requests %d, ring_nodes %d, forwards %d; want 6, 1, 0",
			m["smokescreend_http_requests_total"], m["smokescreend_fleet_ring_nodes"], m["smokescreend_fleet_forwards_total"])
	}
}

// TestRequestKeyedOncePerHop: a POST entering at a non-replica is keyed
// once there and once at the first replica it is forwarded to, which hands
// its server the request it already keyed. (A lone node's one Key call is
// asserted in TestLoneNodeIsARingOfOne.)
func TestRequestKeyedOncePerHop(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ring := h.Ring()
	var query, outsider string
	for i := 0; outsider == ""; i++ {
		query = fmt.Sprintf("hop-%d", i)
		for _, hn := range h.Alive() {
			if !ring.IsReplica(SyntheticKey(query), hn.Name) {
				outsider = hn.Name
				break
			}
		}
	}
	status, body, err := h.Post(testCtx(t), h.URLFor(outsider), server.GenRequest{Query: query})
	if err != nil || status != http.StatusOK {
		t.Fatalf("POST via non-replica = %d %s (%v)", status, body, err)
	}
	if got := h.Counter.Keys(); got != 2 {
		t.Fatalf("a forwarded POST keyed %d times, want 2 (entry node and first replica)", got)
	}
	if got := h.Counter.Total(); got != 1 {
		t.Fatalf("%d generations, want 1", got)
	}
}
