package fleetd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"smokescreen/internal/server"
)

// TestNonReplicaContract pins what a client sees when it enters the fleet
// through a node that does NOT replicate the key it asks about: the status
// and headers of a GET and of a sync re-POST on every outcome the miss path
// has, and that an async POST is still forwarded and answers with a job id
// the minting replica issued. Every row uses a key its entry node has never
// been asked for, so the rows describe the miss path whatever the node does
// with keys it has already served.
func TestNonReplicaContract(t *testing.T) {
	h := startFleet(t, HarnessConfig{})
	ctx := testCtx(t)
	ring := h.Ring()

	node := func(name string) *HarnessNode {
		for _, hn := range h.Nodes() {
			if hn.Name == name {
				return hn
			}
		}
		t.Fatalf("node %s not in harness", name)
		return nil
	}
	outsider := func(key string) *HarnessNode {
		for _, hn := range h.Nodes() {
			if !ring.IsReplica(key, hn.Name) {
				return hn
			}
		}
		t.Fatalf("every node replicates %s", key)
		return nil
	}
	// seal stores query's profile by POSTing through its primary replica, so
	// the outsider never hears of the key.
	seal := func(query string) (key string, sealed []byte) {
		key = SyntheticKey(query)
		status, sealed, err := h.Post(ctx, node(ring.Replicas(key)[0]).URL, server.GenRequest{Query: query})
		if err != nil || status != http.StatusOK {
			t.Fatalf("sealing %s: %d %v", query, status, err)
		}
		return key, sealed
	}
	// corruptReplicas flips a payload byte in every replica's disk copy and
	// drops the cached payloads: bit rot found after a restart.
	corruptReplicas := func(key string) {
		for _, name := range ring.Replicas(key) {
			st := node(name).Store
			env, err := st.GetEnvelope(key)
			if err != nil {
				t.Fatal(err)
			}
			env[len(env)/2] ^= 0x40
			if err := os.WriteFile(st.EnvelopePath(key), env, 0o644); err != nil {
				t.Fatal(err)
			}
			st.Invalidate(key)
		}
	}
	killReplicas := func(key string) {
		for _, name := range ring.Replicas(key) {
			h.Kill(name)
		}
	}

	rows := []struct {
		name    string
		query   string
		stored  bool             // seal the key before the request
		prepare func(key string) // damage done after sealing
		method  string           // GET by key, or POST of the query
		async   bool
		want    int
		wantKey bool // X-Smokescreen-Key and the sealed bytes
	}{
		{name: "GET stored", query: "contract-get", stored: true, method: http.MethodGet, want: http.StatusOK, wantKey: true},
		{name: "re-POST stored", query: "contract-repost", stored: true, method: http.MethodPost, want: http.StatusOK, wantKey: true},
		{name: "GET unknown", query: "contract-unknown", method: http.MethodGet, want: http.StatusNotFound},
		{name: "async POST new", query: "contract-async", method: http.MethodPost, async: true, want: http.StatusAccepted},
		{name: "GET corrupt everywhere", query: "contract-corrupt", stored: true, prepare: corruptReplicas, method: http.MethodGet, want: http.StatusGone},
		// The dead-replica rows come last: they shrink the fleet to the
		// entry node.
		{name: "GET replicas dead", query: "contract-dead", stored: true, prepare: killReplicas, method: http.MethodGet, want: http.StatusBadGateway},
		{name: "re-POST replicas dead", query: "contract-dead", method: http.MethodPost, want: http.StatusBadGateway},
	}
	for _, row := range rows {
		key := SyntheticKey(row.query)
		var sealed []byte
		if row.stored {
			_, sealed = seal(row.query)
		}
		if row.prepare != nil {
			row.prepare(key)
		}
		entry := outsider(key)
		forwardsBefore := entry.Node.metrics.forwards.Load()

		var req *http.Request
		var err error
		if row.method == http.MethodGet {
			req, err = http.NewRequestWithContext(ctx, http.MethodGet, entry.URL+"/v1/profiles/"+key, nil)
		} else {
			body := mustJSON(server.GenRequest{Query: row.query, Async: row.async})
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, entry.URL+"/v1/profiles", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		status, header, body, err := h.do(req)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if status != row.want {
			t.Errorf("%s: status %d, want %d (%s)", row.name, status, row.want, bytes.TrimSpace(body))
			continue
		}
		if ct := header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", row.name, ct)
		}
		if row.wantKey {
			if got := header.Get("X-Smokescreen-Key"); got != key {
				t.Errorf("%s: X-Smokescreen-Key %q, want %s", row.name, got, key)
			}
			if !bytes.Equal(body, sealed) {
				t.Errorf("%s: body differs from the sealed bytes", row.name)
			}
		} else if got := header.Get("X-Smokescreen-Key"); got != "" {
			t.Errorf("%s: X-Smokescreen-Key %q on a %d", row.name, got, status)
		}
		if row.async {
			var job struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
				t.Fatalf("%s: no job id in %s (%v)", row.name, body, err)
			}
			minter := entry.Node.nodeForJobID(job.ID)
			if minter == entry.Name || !ring.IsReplica(key, minter) {
				t.Errorf("%s: job %s minted by %q, want a replica of the key", row.name, job.ID, minter)
			}
			if entry.Node.metrics.forwards.Load() == forwardsBefore {
				t.Errorf("%s: the entry node did not forward", row.name)
			}
		}
	}
}
