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
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// fleetFromHeader marks fleet-internal hops. A request carrying it is
// served where it lands, never re-forwarded — a forwarding chain is at most
// one hop deep (client -> entry node -> replica), so two nodes that
// disagree about which replica is reachable can never ping-pong a request
// around the ring.
const fleetFromHeader = "X-Smokescreen-Fleet-From"

const (
	// maxTransferBytes bounds forwarded responses and envelope transfers.
	maxTransferBytes = 256 << 20
	// peerTimeout bounds one fleet-internal envelope exchange.
	peerTimeout = 15 * time.Second
)

// Config assembles a fleet Node.
type Config struct {
	// Self is this node's name as it appears in Nodes. Required.
	Self string
	// Nodes is the full fleet membership (base URLs or host:port).
	// Required; every node must be configured with the identical set.
	Nodes []string
	// Replicas is the replication factor (DefaultReplicas if <= 0).
	Replicas int
	// Store is this node's local artifact store. Required.
	Store *store.Store
	// Generator resolves and runs generations. Required.
	Generator server.Generator
	// Server templates the inner per-node daemon (Workers, QueueDepth,
	// RequestTimeout, ...). Store, Generator, JobIDPrefix, and BaseContext
	// are owned by the Node and overwritten.
	Server server.Config
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
}

// Node is one smokescreend daemon: the single-process server wrapped with
// ring routing, replica fan-out and read-repair. A ring of one member is
// the lone daemon: every key is its own and nothing is forwarded or
// replicated. Mount Handler on this node's listener.
type Node struct {
	self string
	ring *Ring
	logf func(format string, args ...any)

	localStore *store.Store
	backend    *replicatedStore
	inner      *server.Server
	innerH     http.Handler
	gen        server.Generator

	client   *http.Client
	forwards *flightGroup
	metrics  fleetMetrics

	// jobNodes maps id prefixes to node names so any node can proxy
	// GET/DELETE /v1/jobs/{id} and /v1/streams/{id} to the node that
	// minted the id.
	jobNodes map[string]string

	// baseCtx parents every generation and stream; Drain and Close cancel
	// it, and the fleet tests cancel it alone to simulate this node dying
	// mid-work.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// nodePrefix derives a node's job- and stream-id prefix: 8 hex chars of
// the node name's SHA-256, so ids are globally unique and any node can map
// a handle back to its minting node without shared state.
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
	ring, err := NewRing(cfg.Nodes, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	self := strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	if !ring.Contains(self) {
		return nil, fmt.Errorf("fleetd: self %q is not in the node set %v", self, ring.Nodes())
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
		self:       self,
		ring:       ring,
		logf:       func(format string, args ...any) { cfg.Logf("fleet %s: "+format, append([]any{self}, args...)...) },
		localStore: cfg.Store,
		gen:        cfg.Generator,
		forwards:   newFlightGroup(),
		jobNodes:   make(map[string]string, len(ring.Nodes())),
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
	n.innerH = inner.Routes()
	return n, nil
}

// Ring returns the node's (immutable) placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// peers returns key's replicas other than this node, in ring order.
func (n *Node) peers(key string) []string {
	replicas := n.ring.Replicas(key)
	if i := slices.Index(replicas, n.self); i >= 0 {
		return slices.Delete(replicas, i, i+1)
	}
	return replicas
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
	mux.HandleFunc("GET /v1/streams/{id}", n.handleJob)
	mux.HandleFunc("DELETE /v1/streams/{id}", n.handleJob)
	mux.HandleFunc("GET /v1/ring", n.handleRing)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	if len(n.ring.Nodes()) > 1 {
		// Envelope transfer is for peers only: a ring of one has none, so
		// it mounts no raw envelope read or write.
		mux.HandleFunc("GET /v1/internal/profiles/{key}", n.handleEnvelopeGet)
		mux.HandleFunc("PUT /v1/internal/profiles/{key}", n.handleEnvelopePut)
	}
	// Everything else (healthz, POST /v1/streams, ...) is the inner
	// daemon's.
	mux.Handle("/", n.innerH)
	return n.inner.Counted(mux)
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

// entryCopy answers a read of key from a verified copy: the one this
// node's store already holds, else one pulled from a replica — persisted
// when this node replicates key (read-repair), admitted memory-only when it
// does not. A sealed key's bytes are immutable and every copy is
// checksum-validated before it is kept, so the copy is as authoritative as
// a replica's and saves the second HTTP exchange of a forward. ok is false
// when no replica supplied a valid envelope; the caller then relays the
// request, which keeps every miss-path status exactly as a replica gives it.
func (n *Node) entryCopy(key string) (payload []byte, ok bool) {
	if payload, err := n.localStore.Get(key); err == nil {
		if n.ring.IsReplica(key, n.self) {
			n.metrics.localRequests.Add(1)
		} else {
			n.metrics.entryHits.Add(1)
		}
		return payload, true
	}
	payload, err := n.backend.fetchVerified(key)
	return payload, err == nil
}

// handlePostProfile routes a generation request to the key's generator:
// the first node of ring.Replicas(key), in ring order and counting this
// one, that answers. That node's job registry coalesces every POST of the
// key that reaches it, and forwardFlight coalesces each entry node's POSTs
// of it into one upstream request, so a herd costs one generation while the
// first replica is reachable. A dead replica costs a refused connect, not
// a timeout: the next one in ring order takes over. A request that was
// already routed here is served here. The request is decoded and keyed
// once; it is re-marshalled only to be forwarded.
func (n *Node) handlePostProfile(w http.ResponseWriter, r *http.Request) {
	req, key, canonical, ok := server.ReadGenRequest(w, r, n.gen)
	if !ok {
		return
	}

	// ahead: the replicas that generate key before this node does.
	ahead, isReplica := n.ring.Replicas(key), false
	if i := slices.Index(ahead, n.self); i >= 0 {
		ahead, isReplica = ahead[:i], true
	}
	if len(ahead) == 0 || r.Header.Get(fleetFromHeader) != "" {
		n.serveLocal(w, r, req, key, canonical)
		return
	}
	mode := "|async"
	if !req.Async {
		// A sync re-POST of a sealed key is a read.
		if payload, ok := n.entryCopy(key); ok {
			server.WriteProfile(w, key, payload)
			return
		}
		mode = "|sync"
	}
	// Canonical wire form: every hop and every flight of this request
	// coalesces on identical bytes.
	body, err := json.Marshal(req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	res, err := n.forwardFlight(r.Context(), "POST|"+key+mode, http.MethodPost, "/v1/profiles", body, ahead)
	switch {
	case err == nil:
		writeFwd(w, res)
	case isReplica && !errors.Is(err, context.Canceled):
		// Every replica ahead of this one is unreachable: this node is
		// the key's first live replica. (A canceled flight says nothing
		// about reachability; its leader's client went away.)
		n.serveLocal(w, r, req, key, canonical)
	default:
		n.metrics.forwardErrors.Add(1)
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: forwarding to replicas: %w", err))
	}
}

// serveLocal hands the decoded, keyed request to this node's daemon.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, req server.GenRequest, key, canonical string) {
	n.metrics.localRequests.Add(1)
	n.inner.ServeKeyed(w, r, req, key, canonical)
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
		VNodes:   vnodes,
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

// nodeForJobID maps a job or stream id back to the node whose prefix
// minted it ("" when the id carries no known prefix).
func (n *Node) nodeForJobID(id string) string {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return ""
	}
	return n.jobNodes[id[:i+1]]
}

// handleJob serves GET/DELETE /v1/jobs/{id} and /v1/streams/{id}:
// locally when this node minted the id, otherwise proxied to the minting
// node — a client may poll or cancel through any node with a handle it got
// from another, such as a forwarded 202.
func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	owner := n.nodeForJobID(r.PathValue("id"))
	if owner == "" || owner == n.self || r.Header.Get(fleetFromHeader) != "" {
		n.innerH.ServeHTTP(w, r)
		return
	}
	res, err := n.fetch(r.Context(), r.Method, owner, r.URL.RequestURI(), "", nil)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("fleetd: job owner %s unreachable: %w", owner, err))
		return
	}
	writeFwd(w, res)
}

// handleMetrics renders the inner daemon's block, then appends the
// fleet layer's own counters and gauges.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.innerH.ServeHTTP(w, r)
	server.WriteSamples(w, map[string]int64{
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
		"smokescreend_fleet_ring_nodes":                   int64(len(n.ring.Nodes())),
		"smokescreend_fleet_ring_vnodes":                  vnodes,
		"smokescreend_fleet_ring_replicas":                int64(n.ring.ReplicaCount()),
	})
}
