package fleetd

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"smokescreen/internal/server"
	"smokescreen/internal/stats"
	"smokescreen/internal/store"
)

// Deterministic simulation of the fleet's read path (first slice of ROADMAP
// item 4). A simFleet is N real Nodes with no listeners: simTransport, set as
// every node's Config.Transport and as the test client's, dispatches each
// request to the target node's Handler in memory and applies the faults the
// scenario armed — drop (a transport error), flip (one byte of an envelope
// transfer) and dead node. Client ops run one at a time and the faults of an
// op are drawn from the seed before it starts, so a model can say what every
// op must answer and what it must cost, and a failing seed replays exactly:
//
//	go test -run TestFleetSim ./internal/fleetd -fleetsim.seed=N
//
// `go test ./...` runs the quick tier; `make fleet-sim` runs 2 000 seeds.
var (
	simSeeds = flag.Int("fleetsim.seeds", 50, "fleet simulation: number of seeds to run")
	simSeed  = flag.Int64("fleetsim.seed", -1, "fleet simulation: replay this one seed")
)

const envelopePath = "/v1/internal/profiles/"

// simTransport is the in-memory fleet network.
type simTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	dead     map[string]bool
	// drops[host] fleet-internal requests to host fail before reaching it;
	// the next flips[host] envelopes host serves leave with one payload
	// byte flipped at flipAt (a fraction of the payload's length).
	drops  map[string]int
	flips  map[string]int
	flipAt float64
	// envelopeGets counts, per key, the envelope fetches that reached a
	// live node. gate, when set, holds each of them until it is closed.
	envelopeGets map[string]int
	gate         chan struct{}
}

func newSimTransport() *simTransport {
	return &simTransport{
		handlers:     map[string]http.Handler{},
		dead:         map[string]bool{},
		drops:        map[string]int{},
		flips:        map[string]int{},
		envelopeGets: map[string]int{},
	}
}

func (tr *simTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	envelopeGet := req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, envelopePath)

	tr.mu.Lock()
	handler := tr.handlers[host]
	switch {
	case handler == nil:
		tr.mu.Unlock()
		return nil, fmt.Errorf("sim: no such host %s", host)
	case tr.dead[host] || tr.dead[req.Header.Get(fleetFromHeader)]:
		tr.mu.Unlock()
		return nil, fmt.Errorf("sim: %s: connection refused", host)
	case req.Header.Get(fleetFromHeader) != "" && tr.drops[host] > 0:
		tr.drops[host]--
		tr.mu.Unlock()
		return nil, fmt.Errorf("sim: request to %s dropped", host)
	}
	flip, gate := false, tr.gate
	if envelopeGet {
		tr.envelopeGets[strings.TrimPrefix(req.URL.Path, envelopePath)]++
		if tr.flips[host] > 0 {
			tr.flips[host]--
			flip = true
		}
	}
	flipAt := tr.flipAt
	tr.mu.Unlock()
	if envelopeGet && gate != nil {
		<-gate
	}

	// The server's view of the client's request.
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, in)
	resp := rec.Result()
	if flip && resp.StatusCode == http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		// Inside the payload, so the damage is never benign (a flipped
		// digit of created_unix would still be a valid envelope).
		start := bytes.Index(body, []byte(`"payload":`)) + len(`"payload":`)
		span := len(body) - len("}\n") - start
		body[start+int(flipAt*float64(span))] ^= 0x01
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp, nil
}

// arm replaces the armed faults; arm(nil, nil, 0) clears them, so what one op
// left unconsumed never leaks into the next.
func (tr *simTransport) arm(drops, flips map[string]int, flipAt float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.drops, tr.flips, tr.flipAt = map[string]int{}, map[string]int{}, flipAt
	for host, n := range drops {
		tr.drops[host] = n
	}
	for host, n := range flips {
		tr.flips[host] = n
	}
}

func (tr *simTransport) fetched(key string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.envelopeGets[key]
}

// simFleet is one seed's fleet and the model of what it must do.
type simFleet struct {
	tr      *simTransport
	client  *http.Client
	names   []string
	nodes   map[string]*Node
	stores  map[string]*store.Store
	ring    *Ring
	counter *GenCounter
	caching bool // false: every store runs with a zero cache budget

	sealed map[string][]byte          // key -> the bytes its generation sealed
	holds  map[string]map[string]bool // node -> keys it holds a copy of without replicating
}

func newSimFleet(dir string, size int, caching bool) (*simFleet, error) {
	f := &simFleet{
		tr: newSimTransport(), nodes: map[string]*Node{}, stores: map[string]*store.Store{},
		counter: NewGenCounter(), caching: caching,
		sealed: map[string][]byte{}, holds: map[string]map[string]bool{},
	}
	f.client = &http.Client{Transport: f.tr}
	for i := 0; i < size; i++ {
		f.names = append(f.names, fmt.Sprintf("n%d", i))
	}
	for _, name := range f.names {
		var opts []store.Option
		if !caching {
			opts = append(opts, store.WithCacheBudget(0))
		}
		st, err := store.Open(filepath.Join(dir, name), opts...)
		if err != nil {
			return nil, err
		}
		node, err := NewNode(Config{
			Self: name, Nodes: f.names, Store: st, Transport: f.tr,
			Generator: &SyntheticGenerator{NodeName: name, Counter: f.counter, PayloadBytes: 512},
			Server:    server.Config{Workers: 1},
		})
		if err != nil {
			return nil, err
		}
		f.nodes[name], f.stores[name], f.holds[name] = node, st, map[string]bool{}
		f.tr.handlers[name] = node.Handler()
	}
	f.ring = f.nodes[f.names[0]].Ring()
	return f, nil
}

func (f *simFleet) close() {
	for _, node := range f.nodes {
		_ = node.Close()
	}
}

func (f *simFleet) kill(name string) {
	f.tr.mu.Lock()
	f.tr.dead[name] = true
	f.tr.mu.Unlock()
	f.nodes[name].baseCancel()
}

func (f *simFleet) alive() []string {
	var out []string
	for _, name := range f.names {
		if !f.tr.dead[name] {
			out = append(out, name)
		}
	}
	return out
}

func (f *simFleet) outsiders(key string) []string {
	var out []string
	for _, name := range f.names {
		if !f.ring.IsReplica(key, name) {
			out = append(out, name)
		}
	}
	return out
}

// request issues one client op: a GET of key, or a sync POST of query.
func (f *simFleet) request(entry, method, query string) (int, http.Header, []byte, error) {
	var req *http.Request
	var err error
	if method == http.MethodGet {
		req, err = http.NewRequest(http.MethodGet, "http://"+entry+"/v1/profiles/"+SyntheticKey(query), nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, "http://"+entry+"/v1/profiles", bytes.NewReader(mustJSON(server.GenRequest{Query: query})))
	}
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// seal generates query's profile through entry, fault-free, and records the
// sealed bytes.
func (f *simFleet) seal(entry, query string) error {
	status, _, body, err := f.request(entry, http.MethodPost, query)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("sealing %s via %s: %d %v", query, entry, status, err)
	}
	f.sealed[SyntheticKey(query)] = body
	return nil
}

// simCost is what one op may move on its entry node and on the wire.
type simCost struct{ hits, admits, repairFailures, forwards, fetches int64 }

func (f *simFleet) cost(entry, key string) simCost {
	m := &f.nodes[entry].metrics
	return simCost{m.entryHits.Load(), m.entryAdmits.Load(), m.repairFailures.Load(), m.forwards.Load(), int64(f.tr.fetched(key))}
}

func (c simCost) minus(o simCost) simCost {
	return simCost{c.hits - o.hits, c.admits - o.admits, c.repairFailures - o.repairFailures, c.forwards - o.forwards, c.fetches - o.fetches}
}

// expect is the model of a read of key entering at a live non-replica: the
// status it must answer and what it must cost, given the armed faults. It
// walks the same upstream sequence the node does — an envelope fetch from
// each replica in ring order, then the relay to each in ring order — and
// records the copy the node ends up holding.
func (f *simFleet) expect(entry, key string, drops, flips map[string]int) (int, simCost) {
	_, known := f.sealed[key]
	if f.holds[entry][key] {
		return http.StatusOK, simCost{hits: 1}
	}
	left := map[string]int{}
	for host, n := range drops {
		left[host] = n
	}
	reaches := func(replica string) bool {
		if f.tr.dead[replica] {
			return false
		}
		if left[replica] > 0 {
			left[replica]--
			return false
		}
		return true
	}
	var c simCost
	for _, replica := range f.ring.Replicas(key) {
		if !reaches(replica) {
			continue
		}
		c.fetches++
		if !known {
			continue // 404: this replica has no envelope
		}
		if flips[replica] > 0 {
			c.repairFailures++
			continue
		}
		c.admits = 1
		f.holds[entry][key] = f.caching
		return http.StatusOK, c
	}
	c.forwards = 1
	for _, replica := range f.ring.Replicas(key) {
		if !reaches(replica) {
			continue
		}
		if known {
			return http.StatusOK, c
		}
		return http.StatusNotFound, c
	}
	return http.StatusBadGateway, c
}

// read runs one client read of query through entry and checks it against the
// model: a replica answers from its own store; a non-replica answers and
// costs what expect says; a 200 carries the key header and the sealed bytes.
func (f *simFleet) read(entry, method, query string, drops, flips map[string]int, flipAt float64) error {
	key := SyntheticKey(query)
	sealed, known := f.sealed[key]
	what := fmt.Sprintf("%s %s via %s (replicas %v, dead %v, drops %v, flips %v)", method, query, entry, f.ring.Replicas(key), f.tr.dead, drops, flips)

	want, wantCost, outsider := http.StatusOK, simCost{}, !f.ring.IsReplica(key, entry)
	if outsider {
		want, wantCost = f.expect(entry, key, drops, flips)
	} else if !known {
		want = http.StatusNotFound
	}
	f.tr.arm(drops, flips, flipAt)
	before := f.cost(entry, key)
	status, header, body, err := f.request(entry, method, query)
	got := f.cost(entry, key).minus(before)
	f.tr.arm(nil, nil, 0)
	if err != nil {
		return fmt.Errorf("%s: %v", what, err)
	}
	if status != want {
		return fmt.Errorf("%s: status %d, want %d (%s)", what, status, want, bytes.TrimSpace(body))
	}
	if status == http.StatusOK && (!bytes.Equal(body, sealed) || header.Get("X-Smokescreen-Key") != key) {
		return fmt.Errorf("%s: a 200 that is not the sealed profile (key header %q)", what, header.Get("X-Smokescreen-Key"))
	}
	if !known {
		// A replica asked for a key it lacks read-repairs from its peer,
		// which adds envelope fetches the entry node did not make.
		got.fetches, wantCost.fetches = 0, 0
	}
	if outsider && got != wantCost {
		return fmt.Errorf("%s: cost %+v, want %+v", what, got, wantCost)
	}
	return nil
}

// herd sends clients concurrent first GETs of a sealed key through one
// non-replica that holds no copy, all parked on one envelope fetch, and
// checks that the fetch happened once.
func (f *simFleet) herd(entry, query string, clients int) error {
	key := SyntheticKey(query)
	gate := make(chan struct{})
	f.tr.mu.Lock()
	f.tr.gate = gate
	f.tr.mu.Unlock()
	before := f.cost(entry, key)

	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			status, _, body, err := f.request(entry, http.MethodGet, query)
			if err == nil && (status != http.StatusOK || !bytes.Equal(body, f.sealed[key])) {
				err = fmt.Errorf("status %d, sealed bytes: %v", status, bytes.Equal(body, f.sealed[key]))
			}
			errs <- err
		}()
	}
	// Wait for the event, not the clock: every client but the flight's
	// leader is parked on it, and the leader is parked on the gate.
	flights := f.nodes[entry].backend.repairs
	var early error
	for parked := 0; parked < clients-1 && early == nil; runtime.Gosched() {
		flights.mu.Lock()
		if fl := flights.flights[key]; fl != nil {
			parked = fl.waiters
		}
		flights.mu.Unlock()
		select {
		case err := <-errs:
			early = fmt.Errorf("a client was answered before any envelope arrived: %v", err)
		default:
		}
	}
	f.tr.mu.Lock()
	f.tr.gate = nil
	f.tr.mu.Unlock()
	close(gate)
	if early != nil {
		return fmt.Errorf("herd GET %s via %s: %v", query, entry, early)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("herd GET %s via %s: %v", query, entry, err)
		}
	}
	f.holds[entry][key] = f.caching
	if got, want := f.cost(entry, key).minus(before), (simCost{admits: 1, fetches: 1}); got != want {
		return fmt.Errorf("herd of %d first GETs of %s via %s: cost %+v, want %+v", clients, query, entry, got, want)
	}
	return nil
}

// runFleetSim is one seed: seal three keys, herd one, run a seeded schedule
// of faulted reads with one node dying along the way, kill both replicas of
// a key and read it from every survivor, then audit the disks.
func runFleetSim(dir string, seed uint64) error {
	rng := stats.NewStream(seed)
	f, err := newSimFleet(dir, 3+rng.Intn(2), seed%5 != 0)
	if err != nil {
		return err
	}
	defer f.close()

	queries := []string{"sim-a", "sim-b", "sim-herd"}
	for _, q := range queries {
		// Through any node: a forwarded generation leaves no copy behind.
		if err := f.seal(f.names[rng.Intn(len(f.names))], q); err != nil {
			return err
		}
	}
	herdEntry := f.outsiders(SyntheticKey("sim-herd"))
	if err := f.herd(herdEntry[rng.Intn(len(herdEntry))], "sim-herd", 8); err != nil {
		return err
	}

	readable := append(queries, "sim-unknown")
	killAt := rng.Intn(24) // half the seeds lose a node mid-schedule
	for op := 0; op < 12; op++ {
		if op == killAt {
			live := f.alive()
			f.kill(live[rng.Intn(len(live))])
		}
		query := readable[rng.Intn(len(readable))]
		key := SyntheticKey(query)
		drops, flips := map[string]int{}, map[string]int{}
		for _, replica := range f.ring.Replicas(key) {
			switch p := rng.Float64(); {
			case p < 0.15:
				drops[replica] = 1 // the envelope fetch fails, the relay gets through
			case p < 0.25:
				drops[replica] = 2 // both fail
			case p < 0.40:
				flips[replica] = 1
			}
		}
		method := http.MethodGet
		if _, known := f.sealed[key]; known && rng.Bernoulli(0.3) {
			method = http.MethodPost
		}
		live := f.alive()
		if err := f.read(live[rng.Intn(len(live))], method, query, drops, flips, rng.Float64()); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}

	// Both replicas of a key die: it is served exactly where a verified
	// copy was admitted, and nowhere else.
	lost := queries[rng.Intn(len(queries))]
	for _, replica := range f.ring.Replicas(SyntheticKey(lost)) {
		if !f.tr.dead[replica] {
			f.kill(replica)
		}
	}
	for _, entry := range f.alive() {
		if err := f.read(entry, http.MethodGet, lost, nil, nil, 0); err != nil {
			return fmt.Errorf("after losing every replica: %w", err)
		}
	}

	// Copies are memory-only, and none of this generated anything twice.
	for _, name := range f.names {
		stored, _ := f.stores[name].Keys()
		for _, key := range stored {
			if !f.ring.IsReplica(key, name) {
				return fmt.Errorf("node %s lists key %s, which it does not replicate", name, key)
			}
		}
		for key := range f.sealed {
			if _, err := os.Stat(f.stores[name].EnvelopePath(key)); err == nil && !f.ring.IsReplica(key, name) {
				return fmt.Errorf("node %s has key %s on disk without replicating it", name, key)
			}
		}
	}
	if got := f.counter.Total(); got != len(queries) {
		return fmt.Errorf("%d generations for %d keys", got, len(queries))
	}
	return nil
}

// TestFleetSim runs the seeded simulation; a failing seed names itself.
func TestFleetSim(t *testing.T) {
	first, count := uint64(1), *simSeeds
	if *simSeed >= 0 {
		first, count = uint64(*simSeed), 1
	}
	for seed := first; seed < first+uint64(count); seed++ {
		dir, err := os.MkdirTemp(t.TempDir(), "seed-")
		if err != nil {
			t.Fatal(err)
		}
		if err := runFleetSim(dir, seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test -run TestFleetSim ./internal/fleetd -fleetsim.seed=%d", seed, err, seed)
		}
		_ = os.RemoveAll(dir) // keep 2 000 seeds from piling up under TempDir
	}
}

// TestSimTransportFaults pins the simulator itself: each fault does what the
// model assumes, so a green TestFleetSim means the fleet held, not that the
// faults never fired.
func TestSimTransportFaults(t *testing.T) {
	f, err := newSimFleet(t.TempDir(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if err := f.seal("n0", "sim-faults"); err != nil {
		t.Fatal(err)
	}
	key := SyntheticKey("sim-faults")
	replica := f.ring.Replicas(key)[0]
	fetch := func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+replica+envelopePath+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(fleetFromHeader, "n-test")
		return f.tr.RoundTrip(req)
	}
	envelope := func() []byte {
		resp, err := fetch()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("envelope fetch: %v %v", resp, err)
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}

	clean := envelope()
	if _, err := f.stores[replica].AdmitEnvelope(key, clean); err != nil {
		t.Fatalf("clean envelope rejected: %v", err)
	}
	for _, at := range []float64{0, 0.5, 0.999999} {
		f.tr.arm(nil, map[string]int{replica: 1}, at)
		flipped := envelope()
		var corrupt *store.CorruptError
		if _, err := f.stores[replica].AdmitEnvelope(key, flipped); !errors.As(err, &corrupt) {
			t.Fatalf("flip at %v: envelope still validates (%v)", at, err)
		}
		if bytes.Equal(envelope(), flipped) {
			t.Fatalf("flip at %v outlived its count", at)
		}
	}
	f.tr.arm(map[string]int{replica: 1}, nil, 0)
	if _, err := fetch(); err == nil {
		t.Fatal("armed drop let the request through")
	}
	if _, err := fetch(); err != nil {
		t.Fatalf("drop outlived its count: %v", err)
	}
	f.kill(replica)
	if _, err := fetch(); err == nil {
		t.Fatal("dead node answered")
	}
}
