package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smokescreen/internal/server"
)

// Load scenarios for a fleet. Each drives it the way production traffic
// would — through the nodes' HTTP listeners — and returns a LoadResult
// whose counters come from the fleet's own /metrics (or, when the caller
// has one, a ground-truth generation count), so the same runs serve as
// tests (assert the invariants) and as cmd/smokeload's report on a real
// fleet.

// LoadResult is one scenario's outcome.
type LoadResult struct {
	Scenario string `json:"scenario"`
	// Requests/Errors count client-visible operations; an error is a
	// transport failure or an unexpected status.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// DurationMillis is the scenario's wall time.
	DurationMillis float64 `json:"duration_ms"`
	// P50Millis/P99Millis are client-observed latency percentiles.
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	// RequestsPerSec is Requests / Duration.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// Generations counts generator invocations fleet-wide during the
	// scenario (the herd invariant: one per key).
	Generations int `json:"generations"`
	// Fleet-layer counters summed across live nodes (deltas over the
	// scenario).
	Forwards      int64 `json:"forwards"`
	Coalesced     int64 `json:"coalesced"`
	LocalRequests int64 `json:"local_requests"`
	// EntryHits are requests a non-replica entry node answered from a
	// verified copy it already held; EntryAdmits are the copies it pulled.
	EntryHits   int64 `json:"entry_hits"`
	EntryAdmits int64 `json:"entry_admits"`
	Repairs     int64 `json:"repairs"`
}

// Driver is the load client. It knows a fleet only as a list of base
// URLs, so cmd/smokeload (real daemons started elsewhere) and the fleet
// tests (in-process nodes, with their generator's counter as ground truth
// for generations) run the same scenarios through it.
type Driver struct {
	client *http.Client
	// generations reports generator invocations fleet-wide from ground
	// truth; nil reads the smokescreend_generations_total delta instead.
	generations func() int
}

// NewDriver builds a load client; generations is the optional
// ground-truth generation count.
func NewDriver(generations func() int) *Driver {
	return &Driver{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}},
		generations: generations,
	}
}

// Close drops the driver's pooled connections.
func (d *Driver) Close() { d.client.CloseIdleConnections() }

// Get fetches a profile by key through the given base URL.
func (d *Driver) Get(ctx context.Context, baseURL, key string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/profiles/"+key, nil)
	if err != nil {
		return 0, nil, err
	}
	status, _, body, err := d.do(req)
	return status, body, err
}

// Post submits a generation request through the given base URL.
func (d *Driver) Post(ctx context.Context, baseURL string, genReq server.GenRequest) (int, []byte, error) {
	status, _, body, err := d.post(ctx, baseURL, genReq)
	return status, body, err
}

// post is Post that also returns the store key the fleet answered with.
func (d *Driver) post(ctx context.Context, baseURL string, genReq server.GenRequest) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/profiles", bytes.NewReader(mustJSON(genReq)))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, header, body, err := d.do(req)
	return status, header.Get("X-Smokescreen-Key"), body, err
}

func (d *Driver) do(req *http.Request) (int, http.Header, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
	return resp.StatusCode, resp.Header, body, err
}

// ScrapeNode fetches and parses one live node's /metrics.
func (d *Driver) ScrapeNode(ctx context.Context, baseURL string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	status, _, body, err := d.do(req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("fleetd: metrics scrape returned %d", status)
	}
	return ParseMetrics(bytes.NewReader(body))
}

// ParseMetrics reads the daemon's text exposition format ("name value"
// lines) into a map.
func ParseMetrics(r io.Reader) (map[string]int64, error) {
	out := make(map[string]int64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue // non-integer sample; fleet metrics are all integers
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// loadRun is one scenario in flight: the counters snapshotted when it
// began, and the per-request latencies (recorded thread-safely) since.
type loadRun struct {
	d          *Driver
	urls       []string
	res        LoadResult
	start      time.Time
	before     map[string]map[string]int64
	gensBefore int

	mu        sync.Mutex
	latencies []time.Duration
	errors    int64
}

// begin snapshots the fleet's counters and starts the scenario's timer.
func (d *Driver) begin(ctx context.Context, scenario string, urls []string) *loadRun {
	lr := &loadRun{d: d, urls: urls, res: LoadResult{Scenario: scenario}, before: d.snapshot(ctx, urls)}
	if d.generations != nil {
		lr.gensBefore = d.generations()
	}
	lr.start = time.Now()
	return lr
}

// timed runs one request, counts it and records its latency and whether it
// succeeded.
func (lr *loadRun) timed(request func() bool) {
	t0 := time.Now()
	ok := request()
	elapsed := time.Since(t0)
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.res.Requests++
	lr.latencies = append(lr.latencies, elapsed)
	if !ok {
		lr.errors++
	}
}

func (lr *loadRun) percentile(p float64) time.Duration {
	if len(lr.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lr.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// snapshot captures the per-node counters a scenario reports deltas of.
// Per-node (not summed), and skipping nodes that do not answer, so that a
// node killed mid-scenario drops out of BOTH sides of the delta instead of
// making fleet totals go backwards.
func (d *Driver) snapshot(ctx context.Context, urls []string) map[string]map[string]int64 {
	per := make(map[string]map[string]int64)
	for _, url := range urls {
		if m, err := d.ScrapeNode(ctx, url); err == nil {
			per[url] = m
		}
	}
	return per
}

// finish stops the timer and fills the result's rates, percentiles and
// counter deltas.
func (lr *loadRun) finish(ctx context.Context) LoadResult {
	d, res := lr.d, &lr.res
	elapsed := time.Since(lr.start)
	res.DurationMillis = float64(elapsed) / float64(time.Millisecond)
	res.Errors = lr.errors
	res.P50Millis = float64(lr.percentile(0.50)) / float64(time.Millisecond)
	res.P99Millis = float64(lr.percentile(0.99)) / float64(time.Millisecond)
	if elapsed > 0 {
		res.RequestsPerSec = float64(res.Requests) / elapsed.Seconds()
	}
	// Ground truth is read as the timer stops, before the scrapes below.
	if d.generations != nil {
		res.Generations = d.generations() - lr.gensBefore
	}
	after := d.snapshot(ctx, lr.urls)
	delta := func(name string) int64 {
		var sum int64
		for node, m := range after {
			sum += m[name] - lr.before[node][name]
		}
		return sum
	}
	if d.generations == nil {
		res.Generations = int(delta("smokescreend_generations_total"))
	}
	res.Forwards = delta("smokescreend_fleet_forwards_total")
	res.Coalesced = delta("smokescreend_fleet_forwards_coalesced_total")
	res.LocalRequests = delta("smokescreend_fleet_local_requests_total")
	res.EntryHits = delta("smokescreend_fleet_entry_hits_total")
	res.EntryAdmits = delta("smokescreend_fleet_entry_admits_total")
	res.Repairs = delta("smokescreend_fleet_repairs_total")
	return *res
}

// Herd slams every URL with concurrent sync POSTs of ONE request. The
// fleet must collapse the herd to a single generation: routing-layer
// singleflight on the forwarding nodes, and the job registry on the key's
// first replica, where every node routes it, each absorb a layer of
// duplication.
func (d *Driver) Herd(ctx context.Context, urls []string, clients int, genReq server.GenRequest) (LoadResult, error) {
	if clients <= 0 {
		clients = 32
	}
	if len(urls) == 0 {
		return LoadResult{}, fmt.Errorf("fleetd: no live nodes")
	}
	lr := d.begin(ctx, "herd", urls)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lr.timed(func() bool {
				status, _, err := d.Post(ctx, urls[c%len(urls)], genReq)
				return err == nil && status == http.StatusOK
			})
		}(c)
	}
	wg.Wait()
	res := lr.finish(ctx)
	if res.Errors > 0 {
		return res, fmt.Errorf("fleetd: herd: %d/%d requests failed", res.Errors, res.Requests)
	}
	return res, nil
}

// Steady drives a mixed steady-state workload over a key population: each
// request of the population is generated once (the fleet answers with its
// store key), then clients issue mostly GETs with periodic re-POSTs (all
// store hits after the first). This is the service's throughput shape:
// replica-local vs entry-node hits in ring proportion, one forward or
// envelope pull per (entry node, key) before that.
func (d *Driver) Steady(ctx context.Context, urls []string, clients, requestsPerClient int, population []server.GenRequest) (LoadResult, error) {
	if clients <= 0 {
		clients = 8
	}
	if requestsPerClient <= 0 {
		requestsPerClient = 50
	}
	if len(urls) == 0 || len(population) == 0 {
		return LoadResult{}, fmt.Errorf("fleetd: steady needs live nodes and a key population")
	}
	lr := d.begin(ctx, "steady", urls)

	// Warm phase: generate the population (counted as requests too).
	keys := make([]string, len(population))
	var wg sync.WaitGroup
	for i := range population {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lr.timed(func() bool {
				status, key, _, err := d.post(ctx, urls[i%len(urls)], population[i])
				keys[i] = key
				return err == nil && status == http.StatusOK && key != ""
			})
		}(i)
	}
	wg.Wait()
	if lr.errors > 0 {
		res := lr.finish(ctx)
		return res, fmt.Errorf("fleetd: steady: %d/%d warm POSTs failed", res.Errors, res.Requests)
	}

	// Steady phase: 1 POST per 8 GETs, deterministic key walk per client.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < requestsPerClient; j++ {
				i := (c*requestsPerClient + j) % len(keys)
				url := urls[(c+j)%len(urls)]
				lr.timed(func() bool {
					var status int
					var err error
					if j%8 == 7 {
						status, _, err = d.Post(ctx, url, population[i])
					} else {
						status, _, err = d.Get(ctx, url, keys[i])
					}
					return err == nil && status == http.StatusOK
				})
			}
		}(c)
	}
	wg.Wait()
	res := lr.finish(ctx)
	if res.Errors > 0 {
		return res, fmt.Errorf("fleetd: steady: %d/%d requests failed", res.Errors, res.Requests)
	}
	return res, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only reachable for unmarshalable Go values, not inputs
	}
	return b
}
