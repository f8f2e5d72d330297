package fleetd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// fleetFromHeader marks fleet-internal hops. A request carrying it is
// handled locally, never re-forwarded — forwarding chains are at most one
// hop deep (client -> router -> replica) plus one denied-claimant hop to
// the lease holder, so ownership races can never ping-pong a request
// around the ring.
const fleetFromHeader = "X-Smokescreen-Fleet-From"

const (
	// maxRequestBytes bounds a POST /v1/profiles body.
	maxRequestBytes = 1 << 20
	// maxTransferBytes bounds forwarded responses and envelope transfers.
	maxTransferBytes = 256 << 20
	// peerTimeout bounds one fleet-internal envelope or lease exchange.
	peerTimeout = 15 * time.Second
)

// Config assembles a fleet Node.
type Config struct {
	// Self is this node's name as it appears in Nodes. Required.
	Self string
	// Nodes is the full fleet membership (base URLs or host:port).
	// Required; every node must be configured with the identical set.
	Nodes []string
	// VNodes and Replicas parameterize the ring (package defaults if <= 0).
	VNodes   int
	Replicas int
	// LeaseTTL is how long a generation lease lives without renewal
	// (default 3s). Holders renew at TTL/3; a killed node's lease expires
	// after at most one TTL and a survivor takes the unit over.
	LeaseTTL time.Duration
	// ClaimPoll caps how long a denied claimant waits before re-checking
	// the store and re-claiming (default 100ms).
	ClaimPoll time.Duration
	// Store is this node's local artifact store. Required.
	Store *store.Store
	// Generator resolves and runs generations. Required.
	Generator server.Generator
	// Server templates the inner per-node daemon (Workers, QueueDepth,
	// RequestTimeout, ...). Store, Generator, JobIDPrefix, and BaseContext
	// are owned by the Node and overwritten.
	Server server.Config
	// Clock drives lease TTLs and claim-poll waits; nil means SystemClock.
	// Tests inject a fake clock to step lease expiry deterministically.
	Clock Clock
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
	// Transport overrides the forwarding transport; nil builds a pooled
	// keep-alive http.Transport.
	Transport http.RoundTripper
}

// fleetMetrics are the node's fleet-layer counters, rendered after the
// inner daemon's block on /metrics as smokescreend_fleet_*.
type fleetMetrics struct {
	forwards             atomic.Int64 // routed-away requests (per flight)
	forwardFailovers     atomic.Int64 // extra replica attempts after a peer error
	forwardsCoalesced    atomic.Int64 // requests that rode an in-flight forward
	forwardErrors        atomic.Int64 // forwards with no reachable replica
	localRequests        atomic.Int64 // profile requests served by this replica
	entryHits            atomic.Int64 // non-replica requests answered from a copy already held
	entryAdmits          atomic.Int64 // verified copies of non-replicated keys pulled from a replica
	repairs              atomic.Int64 // read-repairs completed
	repairFailures       atomic.Int64 // peer envelopes that failed validation
	replicaWrites        atomic.Int64 // successful write fan-out pushes
	replicaWriteFailures atomic.Int64 // failed pushes (healed later by read-repair)
	leaseWaits           atomic.Int64 // denied claims that waited for the holder
	leaseLocalFallbacks  atomic.Int64 // lease authority unreachable; local-only dedup
}

// Node is one smokescreend fleet member: the single-process server
// wrapped with ring routing, replica fan-out, read-repair, and lease
// coordination. Mount Handler on this node's listener.
type Node struct {
	cfg   Config
	self  string
	ring  *Ring
	clock Clock
	logf  func(format string, args ...any)

	localStore *store.Store
	backend    *replicatedStore
	inner      *server.Server
	innerH     http.Handler
	gen        server.Generator

	leases   *leaseTable
	client   *http.Client
	forwards *flightGroup
	metrics  fleetMetrics

	// jobNodes maps job-id prefixes to node names so any node can proxy
	// GET/DELETE /v1/jobs/{id} to the node that minted the id.
	jobNodes map[string]string

	leaseTTL  time.Duration
	claimPoll time.Duration

	// baseCtx parents every generation; Kill cancels it to simulate this
	// node dying mid-work (leases are deliberately not released).
	baseCtx    context.Context
	baseCancel context.CancelFunc
	killed     atomic.Bool
}

// nodePrefix derives a node's job-id prefix: 8 hex chars of the node
// name's SHA-256, so ids are globally unique and any node can map a
// forwarded job handle back to its minting node without shared state.
func nodePrefix(node string) string {
	sum := sha256.Sum256([]byte(node))
	return hex.EncodeToString(sum[:4]) + "-"
}

// NewNode validates the config, builds the ring and the inner server,
// and returns a ready node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Store == nil || cfg.Generator == nil {
		return nil, fmt.Errorf("fleetd: Config requires Store and Generator")
	}
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	self := strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	if !ring.Contains(self) {
		return nil, fmt.Errorf("fleetd: self %q is not in the node set %v", self, ring.Nodes())
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.ClaimPoll <= 0 {
		cfg.ClaimPoll = 100 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	parent := cfg.Server.BaseContext
	if parent == nil {
		//smokevet:ignore ctxflow: the node is a compatibility root — it mints the fleet's job root only when the embedder supplies none
		parent = context.Background()
	}
	baseCtx, baseCancel := context.WithCancel(parent)

	n := &Node{
		cfg:        cfg,
		self:       self,
		ring:       ring,
		clock:      cfg.Clock,
		logf:       func(format string, args ...any) { cfg.Logf("fleet %s: "+format, append([]any{self}, args...)...) },
		localStore: cfg.Store,
		gen:        cfg.Generator,
		leases:     newLeaseTable(cfg.Clock),
		forwards:   newFlightGroup(),
		jobNodes:   make(map[string]string, len(ring.Nodes())),
		leaseTTL:   cfg.LeaseTTL,
		claimPoll:  cfg.ClaimPoll,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}
	for _, node := range ring.Nodes() {
		p := nodePrefix(node)
		if other, dup := n.jobNodes[p]; dup {
			baseCancel()
			return nil, fmt.Errorf("fleetd: job-id prefix collision between %q and %q", other, node)
		}
		n.jobNodes[p] = node
	}

	transport := cfg.Transport
	if transport == nil {
		// Pooled keep-alive connections: forwarding a herd must not burn a
		// TCP handshake per request.
		transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	n.client = &http.Client{Transport: transport}

	n.backend = newReplicatedStore(cfg.Store, n)
	innerCfg := cfg.Server
	innerCfg.Store = n.backend
	innerCfg.Generator = cfg.Generator
	innerCfg.JobIDPrefix = nodePrefix(self)
	innerCfg.BaseContext = baseCtx
	if innerCfg.Logf == nil {
		innerCfg.Logf = cfg.Logf
	}
	inner, err := server.New(innerCfg)
	if err != nil {
		baseCancel()
		return nil, err
	}
	n.inner = inner
	n.innerH = inner.Handler()
	return n, nil
}

// Self returns this node's normalized name.
func (n *Node) Self() string { return n.self }

// Ring returns the node's (immutable) placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Kill simulates this node dying abruptly: every running generation's
// context is canceled and lease keepers stop WITHOUT releasing — held
// leases expire on their own TTL, which is exactly the takeover path
// survivors exercise. The caller also closes the node's listener; Kill
// itself performs no graceful drain.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.baseCancel()
}

// Drain stops intake and waits for in-flight work, bounded by ctx.
func (n *Node) Drain(ctx context.Context) error {
	err := n.inner.Drain(ctx)
	n.baseCancel()
	return err
}

// Close drains with the inner server's grace period.
func (n *Node) Close() error {
	err := n.inner.Close()
	n.baseCancel()
	return err
}

// Handler returns the node's HTTP handler: the fleet routing layer over
// the inner daemon's API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/profiles/{key}", n.handleGetProfile)
	mux.HandleFunc("POST /v1/profiles", n.handlePostProfile)
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("POST /v1/leases", n.handleLeases)
	mux.HandleFunc("GET /v1/ring", n.handleRing)
	mux.HandleFunc("GET /v1/internal/profiles/{key}", n.handleEnvelopeGet)
	mux.HandleFunc("PUT /v1/internal/profiles/{key}", n.handleEnvelopePut)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	// Everything else (healthz, streams, ...) is the inner daemon's.
	mux.Handle("/", n.innerH)
	return mux
}

// nodeURL renders a node name as a base URL.
func (n *Node) nodeURL(node string) string {
	if strings.Contains(node, "://") {
		return node
	}
	return "http://" + node
}

// ---------------------------------------------------------------------------
// Forwarding

// fwdResult is one forwarded response, shareable across a flight.
type fwdResult struct {
	status int
	header http.Header
	body   []byte
}

// forwardHeaders are the response headers worth relaying to clients.
var forwardHeaders = []string{"Content-Type", "X-Smokescreen-Key", "Retry-After"}

func pickHeaders(h http.Header) http.Header {
	out := make(http.Header, len(forwardHeaders))
	for _, name := range forwardHeaders {
		if v := h.Get(name); v != "" {
			out.Set(name, v)
		}
	}
	return out
}

// fetch performs one fleet-internal request against a peer; contentType
// labels a non-empty body.
func (n *Node) fetch(ctx context.Context, method, target, path, contentType string, body []byte) (*fwdResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, n.nodeURL(target)+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(fleetFromHeader, n.self)
	if len(body) > 0 {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
	if err != nil {
		return nil, err
	}
	return &fwdResult{status: resp.StatusCode, header: pickHeaders(resp.Header), body: b}, nil
}

// forwardFlight routes a request to the key's replicas with failover,
// coalescing concurrent identical forwards onto one upstream request.
// Failover is on transport errors only: an HTTP error status is a real
// answer from a live replica and is relayed as-is.
func (n *Node) forwardFlight(ctx context.Context, flightKey, method, path string, body []byte, targets []string) (*fwdResult, error) {
	val, err, followed := n.forwards.do(flightKey, func() (any, error) {
		n.metrics.forwards.Add(1)
		var lastErr error
		for _, target := range targets {
			if target == n.self {
				continue
			}
			if lastErr != nil {
				n.metrics.forwardFailovers.Add(1)
			}
			res, err := n.fetch(ctx, method, target, path, "application/json", body)
			if err != nil {
				lastErr = err
				continue
			}
			return res, nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("fleetd: no replica to forward %s to", path)
		}
		return nil, lastErr
	})
	if followed {
		n.metrics.forwardsCoalesced.Add(1)
	}
	if err != nil {
		return nil, err
	}
	return val.(*fwdResult), nil
}

func writeFwd(w http.ResponseWriter, res *fwdResult) {
	for name, vals := range res.header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// proxy relays a request verbatim to one target, streaming the response
// back. It returns an error only before anything was written, so callers
// can fall back to another path.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, target string, body []byte) error {
	url := n.nodeURL(target) + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(fleetFromHeader, n.self)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for name, vals := range pickHeaders(resp.Header) {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxTransferBytes))
	return nil
}

// ---------------------------------------------------------------------------
// Profile routing

func (n *Node) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if n.ring.IsReplica(key, n.self) || r.Header.Get(fleetFromHeader) != "" {
		n.metrics.localRequests.Add(1)
		n.innerH.ServeHTTP(w, r)
		return
	}
	if payload, ok := n.entryCopy(key); ok {
		server.WriteProfile(w, key, payload)
		return
	}
	res, err := n.forwardFlight(r.Context(), "GET|"+key, http.MethodGet, "/v1/profiles/"+key, nil, n.ring.Replicas(key))
	if err != nil {
		n.metrics.forwardErrors.Add(1)
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: forwarding to replicas: %w", err))
		return
	}
	writeFwd(w, res)
}

// entryCopy answers for a key this node does not replicate from a verified
// copy: the one its store already holds, else one pulled from a replica and
// admitted memory-only. A sealed key's bytes are immutable and every copy is
// checksum-validated before it is kept, so the copy is as authoritative as
// a replica's and saves the second HTTP exchange of a forward. ok is false
// when no replica supplied a valid envelope; the caller then relays the
// request, which keeps every miss-path status exactly as a replica gives it.
func (n *Node) entryCopy(key string) (payload []byte, ok bool) {
	if payload, err := n.localStore.Get(key); err == nil {
		n.metrics.entryHits.Add(1)
		return payload, true
	}
	payload, err := n.backend.fetchVerified(key)
	return payload, err == nil
}

func (n *Node) handlePostProfile(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleetd: reading request: %w", err))
		return
	}
	req, err := server.DecodeGenRequest(bytes.NewReader(raw))
	if err != nil {
		// Strict decoding on the fleet edge, not just the inner server:
		// a version-skewed field must be rejected before the request is
		// re-marshalled for forwarding, or the field would be silently
		// dropped and a different (wrong) artifact generated and cached.
		var unknown *server.UnknownFieldError
		if errors.As(err, &unknown) {
			server.WriteErrorCode(w, http.StatusBadRequest, "unknown_field", err)
			return
		}
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleetd: %w", err))
		return
	}
	if req.Query == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("fleetd: request requires a query"))
		return
	}
	req.Normalize()
	key, _, err := n.gen.Key(req)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Canonical wire form: every hop and every flight of this request
	// coalesces on identical bytes.
	body, err := json.Marshal(req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}

	forwarded := r.Header.Get(fleetFromHeader) != ""
	if !n.ring.IsReplica(key, n.self) && !forwarded {
		mode := "|async"
		if !req.Async {
			// A sync re-POST of a sealed key is a read.
			if payload, ok := n.entryCopy(key); ok {
				server.WriteProfile(w, key, payload)
				return
			}
			mode = "|sync"
		}
		res, err := n.forwardFlight(r.Context(), "POST|"+key+mode, http.MethodPost, "/v1/profiles", body, n.ring.Replicas(key))
		if err != nil {
			n.metrics.forwardErrors.Add(1)
			server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: forwarding to replicas: %w", err))
			return
		}
		writeFwd(w, res)
		return
	}
	n.servePost(w, r, key, req, body, !forwarded)
}

// servePost handles a POST on a replica of key: claim the generation
// lease fleet-wide, then let the inner daemon's job queue do the work.
// canHop permits one extra forward to the current lease holder; it is
// false for requests that already hopped, so ownership races degrade to
// polling instead of ping-ponging.
func (n *Node) servePost(w http.ResponseWriter, r *http.Request, key string, req server.GenRequest, body []byte, canHop bool) {
	n.metrics.localRequests.Add(1)
	unit := "gen/" + key
	authority := n.ring.Owner(unit)
	for {
		// Fast path — including read-repair: a denied claimant usually
		// exits the wait loop here once the holder's fan-out lands.
		if payload, err := n.backend.Get(key); err == nil {
			server.WriteProfile(w, key, payload)
			return
		}
		st, err := n.leaseCall(r.Context(), authority, leaseRequest{Op: "claim", Unit: unit, Owner: n.self, TTLMillis: int64(n.leaseTTL / time.Millisecond)})
		if err != nil {
			// The lease authority is unreachable. Refusing to generate
			// would turn one dead node into a fleet-wide outage for the
			// keys it arbitrates; generating without the lease only risks
			// duplicate work, and the content-addressed store makes that
			// benign. Degrade to this node's own jobSet dedup.
			n.metrics.leaseLocalFallbacks.Add(1)
			n.logf("lease authority %s unreachable for %s (%v); generating with local dedup only", authority, unit, err)
			n.delegatePost(w, r, body)
			return
		}
		if st.Granted {
			keeper := n.keepLease(authority, unit)
			n.delegatePost(w, r, body)
			keeper.stopKeeper()
			if !n.killed.Load() {
				releaseCtx, cancel := context.WithTimeout(n.baseCtx, peerTimeout)
				_, _ = n.leaseCall(releaseCtx, authority, leaseRequest{Op: "release", Unit: unit, Owner: n.self})
				cancel()
			}
			return
		}
		// Denied: someone else is generating this key right now.
		if canHop && !req.Async && st.Holder != "" && st.Holder != n.self {
			// Ride the holder's in-flight job: its jobSet coalesces us and
			// its sync wait returns the artifact the moment it lands.
			if err := n.proxy(w, r, st.Holder, body); err == nil {
				return
			}
			// Holder unreachable (likely dead) — fall through and wait for
			// its lease to expire, then take the unit over.
		}
		n.metrics.leaseWaits.Add(1)
		wait := n.claimPoll
		if hint := time.Duration(st.TTLMillis) * time.Millisecond; hint > 0 && hint < wait {
			wait = hint
		}
		select {
		case <-n.clock.After(wait):
		case <-r.Context().Done():
			return // client gave up; the holder finishes for future requesters
		case <-n.baseCtx.Done():
			server.WriteError(w, http.StatusServiceUnavailable, errors.New("fleetd: node shutting down"))
			return
		}
	}
}

// delegatePost replays the canonical request body into the inner daemon.
func (n *Node) delegatePost(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.innerH.ServeHTTP(w, r2)
}

// ---------------------------------------------------------------------------
// Leases over HTTP

// leaseRequest is the POST /v1/leases body.
type leaseRequest struct {
	// Op is "claim", "renew", or "release".
	Op    string `json:"op"`
	Unit  string `json:"unit"`
	Owner string `json:"owner"`
	// TTLMillis is the requested lease duration; <= 0 takes the
	// authority's configured default.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// applyLease runs a lease operation against this node's own table.
func (n *Node) applyLease(req leaseRequest) (LeaseStatus, error) {
	if req.Unit == "" || req.Owner == "" {
		return LeaseStatus{}, errors.New("fleetd: lease request requires unit and owner")
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = n.leaseTTL
	}
	switch req.Op {
	case "claim":
		return n.leases.claim(req.Unit, req.Owner, ttl), nil
	case "renew":
		return n.leases.renew(req.Unit, req.Owner, ttl), nil
	case "release":
		return n.leases.release(req.Unit, req.Owner), nil
	default:
		return LeaseStatus{}, fmt.Errorf("fleetd: unknown lease op %q", req.Op)
	}
}

// leaseCall runs a lease operation against the unit's authority — local
// table when this node is the authority, HTTP otherwise.
func (n *Node) leaseCall(ctx context.Context, authority string, req leaseRequest) (LeaseStatus, error) {
	if authority == n.self {
		return n.applyLease(req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return LeaseStatus{}, err
	}
	res, err := n.fetch(ctx, http.MethodPost, authority, "/v1/leases", "application/json", body)
	if err != nil {
		return LeaseStatus{}, err
	}
	if res.status != http.StatusOK {
		return LeaseStatus{}, fmt.Errorf("fleetd: lease authority %s returned %d: %s", authority, res.status, bytes.TrimSpace(res.body))
	}
	var st LeaseStatus
	if err := json.Unmarshal(res.body, &st); err != nil {
		return LeaseStatus{}, fmt.Errorf("fleetd: decoding lease status: %w", err)
	}
	return st, nil
}

func (n *Node) handleLeases(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleetd: decoding lease request: %w", err))
		return
	}
	if req.Unit == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("fleetd: lease request requires a unit"))
		return
	}
	authority := n.ring.Owner(req.Unit)
	if authority != n.self && r.Header.Get(fleetFromHeader) == "" {
		// Any node answers lease calls by forwarding to the authority, so
		// clients (and the smoke script) need not compute ring placement.
		if err := n.proxy(w, r, authority, mustJSON(req)); err != nil {
			server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: lease authority %s unreachable: %w", authority, err))
		}
		return
	}
	st, err := n.applyLease(req)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, st)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only reachable for unmarshalable Go values, not inputs
	}
	return b
}

// leaseKeeper renews one held lease in the background until stopped.
type leaseKeeper struct {
	stop chan struct{}
	done chan struct{}
}

func (k *leaseKeeper) stopKeeper() {
	close(k.stop)
	<-k.done
}

// keepLease renews (authority, unit) at TTL/3 until stopped or the node
// is killed. A kill stops renewal WITHOUT release: the lease expires on
// its own and a survivor takes the unit over — the fleet's equivalent of
// a crashed process dropping its in-process claims.
func (n *Node) keepLease(authority, unit string) *leaseKeeper {
	k := &leaseKeeper{stop: make(chan struct{}), done: make(chan struct{})}
	interval := n.leaseTTL / 3
	if interval <= 0 {
		interval = n.leaseTTL
	}
	go func() {
		defer close(k.done)
		for {
			select {
			case <-k.stop:
				return
			case <-n.baseCtx.Done():
				return
			case <-n.clock.After(interval):
				ctx, cancel := context.WithTimeout(n.baseCtx, peerTimeout)
				st, err := n.leaseCall(ctx, authority, leaseRequest{Op: "renew", Unit: unit, Owner: n.self, TTLMillis: int64(n.leaseTTL / time.Millisecond)})
				cancel()
				if err != nil {
					n.logf("renewing lease %s with %s: %v", unit, authority, err)
					continue // transient; the lease survives until TTL
				}
				if !st.Granted {
					// The lease was lost (expired and reassigned). The
					// generation keeps running — the store write is
					// idempotent — but there is nothing left to renew.
					n.logf("lost lease %s to %s; finishing as duplicate work", unit, st.Holder)
					return
				}
			}
		}
	}()
	return k
}

// ---------------------------------------------------------------------------
// Ring introspection, envelope transfer, job routing, metrics

// ringStatus is the GET /v1/ring body.
type ringStatus struct {
	Self     string   `json:"self"`
	Nodes    []string `json:"nodes"`
	VNodes   int      `json:"vnodes"`
	Replicas int      `json:"replicas"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, ringStatus{
		Self:     n.self,
		Nodes:    n.ring.Nodes(),
		VNodes:   n.ring.VNodes(),
		Replicas: n.ring.ReplicaCount(),
	})
}

// handleEnvelopeGet serves a key's raw store envelope from the LOCAL
// store only — no read-repair, no forwarding. Peers use it as the source
// of repair bytes, so it must reflect exactly what this node has.
func (n *Node) handleEnvelopeGet(w http.ResponseWriter, r *http.Request) {
	env, err := n.localStore.GetEnvelope(r.PathValue("key"))
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(env)
	case errors.Is(err, store.ErrNotFound):
		server.WriteError(w, http.StatusNotFound, err)
	default:
		var corrupt *store.CorruptError
		if errors.As(err, &corrupt) {
			server.WriteError(w, http.StatusGone, err)
			return
		}
		server.WriteError(w, http.StatusInternalServerError, err)
	}
}

// handleEnvelopePut ingests a replica push. PutEnvelope re-validates the
// checksum before the atomic write, so a corrupted transfer is rejected
// here rather than landed.
func (n *Node) handleEnvelopePut(w http.ResponseWriter, r *http.Request) {
	env, err := io.ReadAll(io.LimitReader(r.Body, maxTransferBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("fleetd: reading envelope: %w", err))
		return
	}
	if _, err := n.localStore.PutEnvelope(r.PathValue("key"), env); err != nil {
		var corrupt *store.CorruptError
		if errors.As(err, &corrupt) {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fetchEnvelope pulls a key's envelope from a peer (read-repair source).
func (n *Node) fetchEnvelope(peer, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(n.baseCtx, peerTimeout)
	defer cancel()
	res, err := n.fetch(ctx, http.MethodGet, peer, "/v1/internal/profiles/"+key, "", nil)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("fleetd: peer %s has no usable envelope for %s (%d)", peer, key, res.status)
	}
	return res.body, nil
}

// pushEnvelope fans a freshly written envelope out to a peer replica.
func (n *Node) pushEnvelope(peer, key string, env []byte) error {
	ctx, cancel := context.WithTimeout(n.baseCtx, peerTimeout)
	defer cancel()
	res, err := n.fetch(ctx, http.MethodPut, peer, "/v1/internal/profiles/"+key, "application/octet-stream", env)
	if err != nil {
		return err
	}
	if res.status/100 != 2 {
		return fmt.Errorf("fleetd: peer %s rejected envelope for %s (%d): %s", peer, key, res.status, bytes.TrimSpace(res.body))
	}
	return nil
}

// nodeForJobID maps a job id back to the node whose prefix minted it
// ("" when the id carries no known prefix — e.g. a bare single-node id).
func (n *Node) nodeForJobID(id string) string {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return ""
	}
	return n.jobNodes[id[:i+1]]
}

// handleJob serves GET/DELETE /v1/jobs/{id}: locally when this node
// minted the id, otherwise proxied to the minting node — a client may
// poll any node with a job handle it got from a forwarded 202.
func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	owner := n.nodeForJobID(r.PathValue("id"))
	if owner == "" || owner == n.self || r.Header.Get(fleetFromHeader) != "" {
		n.innerH.ServeHTTP(w, r)
		return
	}
	if err := n.proxy(w, r, owner, nil); err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: job owner %s unreachable: %w", owner, err))
	}
}

// handleMetrics renders the inner daemon's block, then appends the
// fleet layer's own counters and gauges.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.innerH.ServeHTTP(w, r)
	samples := map[string]int64{
		"smokescreend_fleet_forwards_total":               n.metrics.forwards.Load(),
		"smokescreend_fleet_forward_failovers_total":      n.metrics.forwardFailovers.Load(),
		"smokescreend_fleet_forwards_coalesced_total":     n.metrics.forwardsCoalesced.Load(),
		"smokescreend_fleet_forward_errors_total":         n.metrics.forwardErrors.Load(),
		"smokescreend_fleet_local_requests_total":         n.metrics.localRequests.Load(),
		"smokescreend_fleet_entry_hits_total":             n.metrics.entryHits.Load(),
		"smokescreend_fleet_entry_admits_total":           n.metrics.entryAdmits.Load(),
		"smokescreend_fleet_repairs_total":                n.metrics.repairs.Load(),
		"smokescreend_fleet_repair_failures_total":        n.metrics.repairFailures.Load(),
		"smokescreend_fleet_replica_writes_total":         n.metrics.replicaWrites.Load(),
		"smokescreend_fleet_replica_write_failures_total": n.metrics.replicaWriteFailures.Load(),
		"smokescreend_fleet_lease_claims_total":           n.leases.claims.Load(),
		"smokescreend_fleet_lease_denials_total":          n.leases.denials.Load(),
		"smokescreend_fleet_lease_expiries_total":         n.leases.expiries.Load(),
		"smokescreend_fleet_lease_renewals_total":         n.leases.renewals.Load(),
		"smokescreend_fleet_lease_releases_total":         n.leases.releases.Load(),
		"smokescreend_fleet_lease_waits_total":            n.metrics.leaseWaits.Load(),
		"smokescreend_fleet_lease_local_fallbacks_total":  n.metrics.leaseLocalFallbacks.Load(),
		"smokescreend_fleet_leases_active":                int64(n.leases.active()),
		"smokescreend_fleet_ring_nodes":                   int64(len(n.ring.Nodes())),
		"smokescreend_fleet_ring_vnodes":                  int64(n.ring.VNodes()),
		"smokescreend_fleet_ring_replicas":                int64(n.ring.ReplicaCount()),
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, samples[name])
	}
}
