package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/store"
)

// fakeGenerator counts Generate calls and can block until released, so
// tests control exactly when jobs finish.
type fakeGenerator struct {
	generations atomic.Int64
	keyErr      error
	genErr      error
	// block, when non-nil, is received from before Generate returns.
	block chan struct{}
	// started is signalled (non-blocking) when Generate begins.
	started chan struct{}
}

func (g *fakeGenerator) Key(req GenRequest) (string, string, error) {
	if g.keyErr != nil {
		return "", "", g.keyErr
	}
	req.Normalize()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%g|%g", req.Query, req.Seed, req.Step, req.MaxFraction)))
	return hex.EncodeToString(sum[:]), req.Query, nil
}

func (g *fakeGenerator) Generate(ctx context.Context, req GenRequest) ([]byte, error) {
	g.generations.Add(1)
	if g.started != nil {
		select {
		case g.started <- struct{}{}:
		default:
		}
	}
	if g.block != nil {
		select {
		case <-g.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.genErr != nil {
		return nil, g.genErr
	}
	return []byte(fmt.Sprintf(`{"version":1,"query":%q,"seed":%d}`, req.Query, req.Seed)), nil
}

// newTestServer builds a server over a temp store and returns it with its
// HTTP test frontend.
func newTestServer(t *testing.T, gen Generator, mutate func(*Config)) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, Generator: gen, Workers: 2, QueueDepth: 4, RequestTimeout: 5 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, ts, st
}

func postProfile(t *testing.T, url string, req GenRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/profiles", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestConcurrentPostsCoalesceToOneGeneration(t *testing.T) {
	// The acceptance scenario: M concurrent POSTs for one key trigger
	// exactly one generation and all M callers get byte-identical JSON.
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, _ := newTestServer(t, gen, nil)

	const m = 12
	req := GenRequest{Query: "SELECT AVG(count(car)) FROM small"}
	bodies := make([][]byte, m)
	keys := make([]string, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postProfile(t, ts.URL, req)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = apiError(resp)
				return
			}
			var err error
			bodies[i], err = readAll(resp)
			errs[i] = err
			keys[i] = resp.Header.Get("X-Smokescreen-Key")
		}(i)
	}
	// Let the single job start, then release it while all M wait.
	<-gen.started
	time.Sleep(50 * time.Millisecond)
	close(gen.block)
	wg.Wait()

	for i := 0; i < m; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got different bytes:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		if keys[i] != keys[0] || keys[i] == "" {
			t.Fatalf("caller %d got key %q, want %q", i, keys[i], keys[0])
		}
	}
	if n := gen.generations.Load(); n != 1 {
		t.Fatalf("generation ran %d times for %d concurrent requests, want exactly 1", n, m)
	}

	// A later request for the same key is a pure store hit.
	resp := postProfile(t, ts.URL, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal(apiError(resp))
	}
	body, _ := readAll(resp)
	if !bytes.Equal(body, bodies[0]) {
		t.Fatal("store hit returned different bytes")
	}
	if n := gen.generations.Load(); n != 1 {
		t.Fatalf("store hit re-generated (%d total)", n)
	}
}

// parkingStore is a Backend whose Get, once armed, parks the next miss
// until released: the request it belongs to has read the store and not yet
// asked the job set for a job.
type parkingStore struct {
	*store.Store
	gets    atomic.Int64
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingStore) Get(key string) ([]byte, error) {
	p.gets.Add(1)
	payload, err := p.Store.Get(key)
	if err != nil && p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return payload, err
}

// TestStaleMissAttachesToFinishedJob is the hot-key herd's second
// generation, made deterministic: a request misses the store before job
// J1's Put and reaches the job set only after J1 has finished and released
// the key. It must get J1's bytes from J1, not mint J2 — and without a
// second store read on the miss path, which on a fleet node would pull
// envelopes from peers.
func TestStaleMissAttachesToFinishedJob(t *testing.T) {
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	var ps *parkingStore
	_, ts, _ := newTestServer(t, gen, func(cfg *Config) {
		ps = &parkingStore{Store: cfg.Store.(*store.Store), parked: make(chan struct{}), release: make(chan struct{})}
		cfg.Store = ps
	})
	req := GenRequest{Query: "SELECT AVG(count(car)) FROM small"}
	post := func(body *[]byte, done chan<- struct{}) {
		defer close(done)
		resp := postProfile(t, ts.URL, req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST = %d: %v", resp.StatusCode, apiError(resp))
			return
		}
		*body, _ = readAll(resp)
	}

	var first, second []byte
	firstDone, secondDone := make(chan struct{}), make(chan struct{})
	go post(&first, firstDone)
	<-gen.started // J1 is generating
	ps.armed.Store(true)
	go post(&second, secondDone)
	<-ps.parked // the second request has missed
	close(gen.block)
	<-firstDone // J1 has Put, finished and released the key
	close(ps.release)
	<-secondDone

	if first == nil || !bytes.Equal(second, first) {
		t.Fatalf("parked request got %q, want J1's bytes %q", second, first)
	}
	if n := scrapeMetrics(t, ts.URL)["smokescreend_generations_total"]; n != 1 || gen.generations.Load() != 1 {
		t.Fatalf("generations_total = %d (generator ran %d times), want 1: a miss that raced J1's Put must attach to J1", n, gen.generations.Load())
	}
	// Each request read the store twice — the miss, then the artifact —
	// exactly as a request that coalesced onto a running job does.
	if n := ps.gets.Load(); n != 4 {
		t.Fatalf("Backend.Get called %d times, want 4", n)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func TestGetProfileLifecycle(t *testing.T) {
	gen := &fakeGenerator{}
	_, ts, _ := newTestServer(t, gen, nil)

	// Unknown key: 404.
	missing := strings.Repeat("ab", 32)
	resp, err := http.Get(ts.URL + "/v1/profiles/" + missing)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing = %d, want 404", resp.StatusCode)
	}

	// Generate, then GET by key.
	post := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small"})
	key := post.Header.Get("X-Smokescreen-Key")
	want, _ := readAll(post)
	post.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/profiles/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("GET by key = %d, bytes match %v", resp.StatusCode, bytes.Equal(got, want))
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, _ := newTestServer(t, gen, nil)

	resp := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small", Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatal(apiError(resp))
	}
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.ID == "" || status.Key == "" {
		t.Fatalf("bad job status %+v", status)
	}

	client := &Client{BaseURL: ts.URL, PollInterval: 10 * time.Millisecond}
	ctx := context.Background()
	<-gen.started
	js, err := client.Job(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("state = %s, want running", js.State)
	}
	close(gen.block)
	if err := client.awaitJob(ctx, status.ID); err != nil {
		t.Fatal(err)
	}
	payload, err := client.GetProfile(ctx, status.Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload after job completion")
	}

	// Unknown job id: 404.
	if _, err := client.Job(ctx, "job-999999"); err == nil {
		t.Fatal("unknown job did not error")
	}
}

// TestJobIDsNeverRepeat: ids below a million keep their six-digit bytes,
// and a long-lived daemon's millionth-and-first job or stream does not
// reissue the first one's handle (a client polling that handle would read
// another job's status). Job and stream ids both carry the node prefix.
func TestJobIDsNeverRepeat(t *testing.T) {
	srv, ts, _ := newTestServer(t, &fakeGenerator{}, func(cfg *Config) { cfg.JobIDPrefix = "n0-" })
	for _, reg := range []*registry{srv.jobs, srv.streams} {
		for n, suffix := range map[int]string{1: "-000001", 999_999: "-999999", 1_000_001: "-1000001"} {
			if got, want := reg.mintID(n), "n0-"+reg.kind+suffix; got != want {
				t.Errorf("%s mintID(%d) = %q, want %q", reg.kind, n, got, want)
			}
		}
		if reg.mintID(1_000_001) == reg.mintID(1) {
			t.Fatalf("%s mintID(1_000_001) == mintID(1) == %q", reg.kind, reg.mintID(1))
		}
	}
	if st := startAsyncJob(t, ts.URL, "SELECT AVG(count(car)) FROM small"); st.ID != "n0-job-000001" {
		t.Errorf("first job id = %q, want n0-job-000001", st.ID)
	}
	j, err := srv.startStream(StreamRequest{Query: "SELECT AVG(count(car)) FROM small SAMPLE 0.001"})
	if err != nil {
		t.Fatal(err)
	}
	j.cancel()
	if j.id != "n0-stream-000001" {
		t.Errorf("first stream id = %q, want n0-stream-000001", j.id)
	}
}

// TestFullQueueHerdIsRefused: with the one worker busy and the queue
// full, every POST of a new key answers 429. A job becomes visible to
// coalescing only once the queue has taken it, so no request attaches to
// a job the queue refused — such a request would wait out the request
// timeout and get a 202 naming a job that answers 404.
func TestFullQueueHerdIsRefused(t *testing.T) {
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, _ := newTestServer(t, gen, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.RequestTimeout = 1500 * time.Millisecond
	})
	defer close(gen.block)
	startAsyncJob(t, ts.URL, "SELECT AVG(count(car)) FROM small")
	<-gen.started                                                 // the worker is busy
	startAsyncJob(t, ts.URL, "SELECT SUM(count(car)) FROM small") // the queue is full

	const rounds, herd = 20, 64
	for round := 0; round < rounds; round++ {
		body, err := json.Marshal(GenRequest{Query: fmt.Sprintf("herd round %d", round)})
		if err != nil {
			t.Fatal(err)
		}
		codes := make([]int, herd)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/profiles", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}()
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusTooManyRequests {
				t.Fatalf("round %d: POST %d of %d answered %d, want 429", round, i, herd, code)
			}
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	// One worker, queue depth 1: job A runs, job B queues, job C must be
	// rejected with 429 — the daemon sheds load instead of buffering
	// unboundedly.
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	_, ts, _ := newTestServer(t, gen, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	defer close(gen.block)

	a := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small", Async: true})
	a.Body.Close()
	<-gen.started // A is running, queue empty
	b := postProfile(t, ts.URL, GenRequest{Query: "SELECT SUM(count(car)) FROM small", Async: true})
	b.Body.Close()
	if b.StatusCode != http.StatusAccepted {
		t.Fatalf("second job = %d, want 202", b.StatusCode)
	}
	c := postProfile(t, ts.URL, GenRequest{Query: "SELECT MAX(count(car)) FROM small", Async: true})
	c.Body.Close()
	if c.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job = %d, want 429", c.StatusCode)
	}
	if c.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Coalescing does not consume queue slots: re-requesting the queued
	// key attaches instead of rejecting.
	b2 := postProfile(t, ts.URL, GenRequest{Query: "SELECT SUM(count(car)) FROM small", Async: true})
	b2.Body.Close()
	if b2.StatusCode != http.StatusAccepted {
		t.Fatalf("coalesced re-request = %d, want 202", b2.StatusCode)
	}
}

func TestGenerationFailureReported(t *testing.T) {
	gen := &fakeGenerator{genErr: errors.New("detector exploded")}
	_, ts, _ := newTestServer(t, gen, nil)
	resp := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failed generation = %d, want 502", resp.StatusCode)
	}
	err := apiError(resp)
	if !strings.Contains(err.Error(), "detector exploded") {
		t.Fatalf("error lost cause: %v", err)
	}

	// A failed key is retryable: fix the generator and re-POST.
	gen.genErr = nil
	resp2 := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after failure = %d, want 200", resp2.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	gen := &fakeGenerator{keyErr: errors.New("unknown dataset")}
	_, ts, _ := newTestServer(t, gen, nil)
	for name, body := range map[string]string{
		"not json":    "{",
		"empty query": `{}`,
		"key error":   `{"query":"SELECT AVG(count(car)) FROM nowhere"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestUnknownFieldRejected: version skew — a request with a field this
// server version does not know gets a typed 400 ("unknown_field") rather
// than a silently truncated decode that would cache the wrong artifact.
func TestUnknownFieldRejected(t *testing.T) {
	gen := &fakeGenerator{}
	_, ts, _ := newTestServer(t, gen, nil)
	body := `{"query":"SELECT AVG(count(car)) FROM small","ladder_rungs":4}`
	resp, err := http.Post(ts.URL+"/v1/profiles", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var got struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Code != "unknown_field" {
		t.Fatalf("code %q, want unknown_field (error %q)", got.Code, got.Error)
	}
	if !strings.Contains(got.Error, "ladder_rungs") {
		t.Fatalf("error %q does not name the offending field", got.Error)
	}
}

func TestDrainDuringInflightJob(t *testing.T) {
	// SIGTERM mid-job (Drain is what the daemon's signal handler calls):
	// the in-flight generation completes, its artifact lands in the store
	// uncorrupted, and new requests are refused with 503.
	gen := &fakeGenerator{block: make(chan struct{}), started: make(chan struct{}, 1)}
	srv, ts, st := newTestServer(t, gen, func(cfg *Config) { cfg.Workers = 1 })

	resp := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small", Async: true})
	var status JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-gen.started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Drain must not finish while the job is still running.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a job in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// New work is refused while draining.
	refused := postProfile(t, ts.URL, GenRequest{Query: "SELECT SUM(count(car)) FROM small", Async: true})
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain = %d, want 503", refused.StatusCode)
	}

	// Release the job; drain completes and the artifact is intact.
	close(gen.block)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	payload, err := st.Get(status.Key)
	if err != nil {
		t.Fatalf("artifact after drain: %v", err)
	}
	if !json.Valid(payload) {
		t.Fatalf("artifact corrupt after drain: %s", payload)
	}
	keys, corrupt := st.Keys()
	if len(corrupt) != 0 || len(keys) != 1 {
		t.Fatalf("store after drain: keys=%v corrupt=%v", keys, corrupt)
	}
	// Drain is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntryHealedByRepost(t *testing.T) {
	gen := &fakeGenerator{}
	_, ts, st := newTestServer(t, gen, nil)
	req := GenRequest{Query: "SELECT AVG(count(car)) FROM small"}
	resp := postProfile(t, ts.URL, req)
	key := resp.Header.Get("X-Smokescreen-Key")
	want, _ := readAll(resp)
	resp.Body.Close()

	// Corrupt the artifact on disk (and evict the memory cache by
	// reopening the store path directly).
	path := st.EnvelopePath(key)
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	// Evict from LRU so the corruption is visible.
	if err := st.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// GET reports the corruption as 410 Gone.
	get, err := http.Get(ts.URL + "/v1/profiles/" + key)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusGone {
		t.Fatalf("GET corrupt = %d, want 410", get.StatusCode)
	}

	// POST regenerates past the corruption.
	resp2 := postProfile(t, ts.URL, req)
	got, _ := readAll(resp2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("repost over corrupt entry = %d", resp2.StatusCode)
	}
	if gen.generations.Load() != 2 {
		t.Fatalf("generations = %d, want 2 (initial + heal)", gen.generations.Load())
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	gen := &fakeGenerator{}
	srv, ts, _ := newTestServer(t, gen, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	post := postProfile(t, ts.URL, GenRequest{Query: "SELECT AVG(count(car)) FROM small"})
	post.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := readAll(resp)
	resp.Body.Close()
	text := string(metricsBody)
	for _, want := range []string{
		"smokescreend_generations_total 1",
		"smokescreend_profiles_served_total 1",
		"smokescreend_store_puts_total 1",
		"smokescreend_transport_bytes_sent_total",
		"smokescreend_detector_invocations_total",
		"smokescreend_queue_capacity 4",
		"smokescreend_detect_cache_bytes",
		"smokescreend_detect_full_series",
		"smokescreend_detect_sparse_series",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// No gauge a daemon cannot move: only the reference path
	// DetectFrameFull fills the background cache, and the render cache is
	// gone.
	for _, gone := range []string{"smokescreend_detect_render_", "smokescreend_detect_background_"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still serve %q:\n%s", gone, text)
		}
	}
	// The sample name set is pinned (52 names): nothing comes or goes
	// without a diff here.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "smokescreend_fleet_") {
			names = append(names, name)
		}
	}
	if want := []string{
		"smokescreend_detect_cache_bytes",
		"smokescreend_detect_full_bytes",
		"smokescreend_detect_full_series",
		"smokescreend_detect_sparse_bytes",
		"smokescreend_detect_sparse_series",
		"smokescreend_detector_invocations_total",
		"smokescreend_generation_failures_total",
		"smokescreend_generations_canceled_total",
		"smokescreend_generations_total",
		"smokescreend_http_requests_total",
		"smokescreend_job_cancellations_total",
		"smokescreend_jobs_canceled",
		"smokescreend_jobs_done",
		"smokescreend_jobs_failed",
		"smokescreend_jobs_queued",
		"smokescreend_jobs_running",
		"smokescreend_outputs_frame_hits_total",
		"smokescreend_outputs_frames_detected_total",
		"smokescreend_outputs_tables",
		"smokescreend_presence_early_exits_total",
		"smokescreend_presence_probes_total",
		"smokescreend_profiles_served_total",
		"smokescreend_queue_capacity",
		"smokescreend_queue_depth",
		"smokescreend_rejected_draining_total",
		"smokescreend_rejected_queue_full_total",
		"smokescreend_requests_coalesced_total",
		"smokescreend_stage_dedup_saved_frames_total",
		"smokescreend_stage_detect_ns_total",
		"smokescreend_stage_estimate_ns_total",
		"smokescreend_stage_plan_ns_total",
		"smokescreend_stage_tasks_planned_total",
		"smokescreend_stage_units_planned_total",
		"smokescreend_store_cache_bytes",
		"smokescreend_store_cache_entries",
		"smokescreend_store_cache_hits_total",
		"smokescreend_store_disk_hits_total",
		"smokescreend_store_misses_total",
		"smokescreend_store_puts_total",
		"smokescreend_stream_drift_events_total",
		"smokescreend_stream_failures_total",
		"smokescreend_stream_frames_total",
		"smokescreend_stream_late_frames_total",
		"smokescreend_stream_window_lag",
		"smokescreend_stream_windows_total",
		"smokescreend_streams_active",
		"smokescreend_streams_canceled_total",
		"smokescreend_streams_total",
		"smokescreend_transport_bytes_received_total",
		"smokescreend_transport_bytes_sent_total",
		"smokescreend_transport_messages_received_total",
		"smokescreend_transport_messages_sent_total",
	}; !slices.Equal(names, want) {
		t.Errorf("metric names = %q, want %q", names, want)
	}

	// Draining flips healthz.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = readAll(resp)
	resp.Body.Close()
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz after drain: %s", body)
	}
}

func TestClientGenerateEndToEnd(t *testing.T) {
	// Exercise the real generator over the tiny corpus through the full
	// HTTP client path and check the decoded curve is well-formed.
	if testing.Short() {
		t.Skip("real generation in -short mode")
	}
	gen := &SystemGenerator{Parallelism: 2}
	_, ts, _ := newTestServer(t, gen, nil)
	client := &Client{BaseURL: ts.URL, PollInterval: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := GenRequest{Query: "SELECT AVG(count(car)) FROM small", Step: 0.05, MaxFraction: 0.1}
	payload, key, err := client.GenerateRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.LoadProfile(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if key == "" || len(prof.Points) == 0 {
		t.Fatalf("degenerate profile: key=%q points=%d", key, len(prof.Points))
	}
	for _, pt := range prof.Points {
		if pt.Setting.SampleFraction <= 0 || pt.Estimate.ErrBound < 0 {
			t.Fatalf("malformed point %+v", pt)
		}
	}

	// Determinism across the service boundary: a second request returns
	// byte-identical JSON from the store without regenerating.
	raw1, _, err := client.GenerateRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	raw2, _, err := client.GenerateRaw(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("repeat request returned different bytes")
	}

	// The remote profile matches a local generation bit-for-bit in
	// canonical (store) form: the store compacts payloads on Put, so the
	// served bytes are the canonicalization of what the generator emits.
	local, err := gen.Generate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var localCanonical bytes.Buffer
	if err := json.Compact(&localCanonical, local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, localCanonical.Bytes()) {
		t.Fatalf("remote and local artifacts differ:\nremote: %s\nlocal: %s", raw1, localCanonical.Bytes())
	}
}

func TestSystemGeneratorKeyCanonicalization(t *testing.T) {
	gen := &SystemGenerator{}
	// Spelled defaults and omitted defaults address the same artifact.
	k1, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small"})
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := gen.Key(GenRequest{Query: "select avg(count(car)) from small", Seed: 1, Step: 0.01, MaxFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("equivalent requests produced different keys")
	}
	// REMOVE clause order is canonicalized too.
	k3, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small REMOVE person,face"})
	if err != nil {
		t.Fatal(err)
	}
	k4, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small REMOVE face,person"})
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k4 {
		t.Fatal("REMOVE order changed the key")
	}
	if k1 == k3 {
		t.Fatal("different intervention families share a key")
	}
	// A different seed is a different artifact.
	k5, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if k5 == k1 {
		t.Fatal("seed not part of the key")
	}
	// Pixel-axis clauses are first-class: each produces its own artifact.
	k6, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small NOISE 0.1 BLUR 7 QUANTIZE 32 OCCLUDE 0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if k6 == k1 {
		t.Fatal("pixel-axis clauses not part of the key")
	}
	// A ladder request is a distinct artifact from the plain sweep, and an
	// unknown ladder is rejected up front.
	k7, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small", Ladder: "default"})
	if err != nil {
		t.Fatal(err)
	}
	if k7 == k1 {
		t.Fatal("ladder not part of the key")
	}
	if _, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small", Ladder: "nope"}); err == nil {
		t.Fatal("unknown ladder accepted")
	}
	// Ladder requests reject per-query intervention clauses: tiers own them.
	if _, _, err := gen.Key(GenRequest{Query: "SELECT AVG(count(car)) FROM small RESOLUTION 160", Ladder: "default"}); err == nil {
		t.Fatal("ladder request with RESOLUTION clause accepted")
	}
}

var _ Generator = (*fakeGenerator)(nil)
var _ Generator = (*SystemGenerator)(nil)

// TestDegenerateCorrectionIs422 pins the reproducer of the defect PR 11's
// traces found: this request's correction set answers zero cars, so
// Algorithm 3 cannot bound the degraded answer (err_b = +Inf). That used to
// fail inside SaveProfile's JSON encoder and surface as a 502, as if the
// service had broken. It is a property of the request: 422 with a code
// clients can branch on, a failed job carrying the same code, and no
// artifact under the key.
func TestDegenerateCorrectionIs422(t *testing.T) {
	gen := &SystemGenerator{}
	req := GenRequest{Query: "SELECT AVG(count(car)) FROM small RESOLUTION 160", Seed: 26002}

	if _, err := gen.Generate(context.Background(), req); !errors.Is(err, estimate.ErrDegenerateCorrection) {
		t.Fatalf("Generate error = %v, want estimate.ErrDegenerateCorrection", err)
	}

	_, ts, st := newTestServer(t, gen, func(c *Config) { c.RequestTimeout = time.Minute })
	resp := postProfile(t, ts.URL, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var got struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Code != "degenerate_correction" {
		t.Fatalf("code %q, want degenerate_correction (error %q)", got.Code, got.Error)
	}

	key, _, err := gen.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(key); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("store.Get after a degenerate generation: %v, want ErrNotFound", err)
	}
	get, err := http.Get(ts.URL + "/v1/profiles/" + key)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the key = %d, want 404", get.StatusCode)
	}

	// The async protocol reports the same classification on the job.
	req.Async = true
	accepted := postProfile(t, ts.URL, req)
	defer accepted.Body.Close()
	var job JobStatus
	if err := json.NewDecoder(accepted.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	client := &Client{BaseURL: ts.URL, PollInterval: 10 * time.Millisecond}
	if err := client.awaitJob(context.Background(), job.ID); err == nil {
		t.Fatal("degenerate job finished without an error")
	}
	final, err := client.Job(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job = *final; job.State != JobFailed {
		t.Fatalf("job ended %s, want failed", job.State)
	}
	if job.Code != "degenerate_correction" {
		t.Fatalf("job code %q, want degenerate_correction", job.Code)
	}
}

// TestOversizeBodyIs413: every body the daemon decodes is bounded at
// 1 MiB, and a larger one is refused as too large rather than read to its
// end or reported as malformed JSON.
func TestOversizeBodyIs413(t *testing.T) {
	_, ts, _ := newTestServer(t, &fakeGenerator{}, nil)
	body := []byte(`{"query":"` + strings.Repeat("a", 2<<20) + `"}`)
	for _, path := range []string{"/v1/profiles", "/v1/streams"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body: %d, want 413", path, resp.StatusCode)
		}
	}
}
