package fleetd

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// This file is the fleet's test and load bench: an in-process harness
// that stands up N real nodes on loopback listeners — real sockets, so
// forwarding, keep-alive pooling, and connection-refused failover behave
// exactly as across machines — plus a synthetic generator whose per-node
// invocation counters prove the dedup invariants (the hot-key herd must
// cost exactly one generation fleet-wide). cmd/smokeload and the fleet
// tests (TestFleetHotKeyHerd, …SteadyMixed) drive load scenarios through it.

// GenCounter records which node started generating which key. It is the
// harness's ground truth for the dedup invariants.
type GenCounter struct {
	mu     sync.Mutex
	perKey map[string]int
	byNode map[string]map[string]int
}

func NewGenCounter() *GenCounter {
	return &GenCounter{perKey: make(map[string]int), byNode: make(map[string]map[string]int)}
}

func (c *GenCounter) note(node, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.perKey[key]++
	if c.byNode[node] == nil {
		c.byNode[node] = make(map[string]int)
	}
	c.byNode[node][key]++
}

// Key returns how many generations of key started, fleet-wide.
func (c *GenCounter) Key(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perKey[key]
}

// Total returns how many generations started, fleet-wide.
func (c *GenCounter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.perKey {
		n += v
	}
	return n
}

// NodeFor returns a node that started generating key ("" if none did).
func (c *GenCounter) NodeFor(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for node, keys := range c.byNode {
		if keys[key] > 0 {
			return node
		}
	}
	return ""
}

// SyntheticGenerator is a deterministic stand-in for SystemGenerator:
// keys are content addresses of the canonical request, payloads are
// byte-identical for equal requests on every node, and Generate can hold
// for a clock-driven delay so scenarios can observe (and interrupt)
// in-flight work.
type SyntheticGenerator struct {
	// NodeName labels this generator's invocations in Counter.
	NodeName string
	// Counter receives invocation records; nil disables counting.
	Counter *GenCounter
	// Delay holds each generation open (0 = instant); canceled contexts
	// interrupt the hold.
	Delay time.Duration
	// Clock drives Delay; nil means SystemClock.
	Clock Clock
	// PayloadBytes sizes the artifact (default 4096).
	PayloadBytes int
}

// SyntheticKey returns the store key a SyntheticGenerator derives for a
// query with defaulted knobs — scenarios use it to place keys on a ring
// without constructing a generator.
func SyntheticKey(queryText string) string {
	req := server.GenRequest{Query: queryText}
	req.Normalize()
	return syntheticKey(req)
}

func syntheticKey(req server.GenRequest) string {
	canonical := fmt.Sprintf("synthetic\n%s|%d|%g|%g|%g", req.Query, req.Seed, req.Step, req.MaxFraction, req.EarlyStop)
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// Key implements server.Generator.
func (g *SyntheticGenerator) Key(req server.GenRequest) (string, string, error) {
	req.Normalize()
	return syntheticKey(req), req.Query, nil
}

// Generate implements server.Generator.
func (g *SyntheticGenerator) Generate(ctx context.Context, req server.GenRequest) ([]byte, error) {
	req.Normalize()
	key := syntheticKey(req)
	if g.Counter != nil {
		g.Counter.note(g.NodeName, key)
	}
	if g.Delay > 0 {
		clock := g.Clock
		if clock == nil {
			clock = SystemClock
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-clock.After(g.Delay):
		}
	}
	size := g.PayloadBytes
	if size <= 0 {
		size = 4096
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"key":%q,"query":%q,"seed":%d,"data":"`, key, req.Query, req.Seed)
	// Deterministic filler: a hash chain seeded by the key, so equal
	// requests produce byte-identical payloads on every node.
	block := sha256.Sum256([]byte(key))
	for buf.Len() < size {
		buf.WriteString(hex.EncodeToString(block[:]))
		block = sha256.Sum256(block[:])
	}
	buf.Truncate(size)
	buf.WriteString(`"}`)
	return buf.Bytes(), nil
}

// HarnessConfig assembles an in-process fleet.
type HarnessConfig struct {
	// Nodes is the fleet size (default 3).
	Nodes int
	// VNodes/Replicas parameterize the ring (package defaults if <= 0).
	VNodes   int
	Replicas int
	// GenDelay holds each synthetic generation open.
	GenDelay time.Duration
	// PayloadBytes sizes synthetic artifacts.
	PayloadBytes int
	// Workers/QueueDepth/RequestTimeout template each node's inner server.
	Workers        int
	QueueDepth     int
	RequestTimeout time.Duration
	// Dir is the root for per-node store directories. Required; the
	// caller owns cleanup (tests pass t.TempDir()).
	Dir string
	// Clock drives synthetic generation delays and the load scenarios'
	// latency measurements; nil means SystemClock.
	Clock Clock
	// Logf receives every node's log lines; nil discards them.
	Logf func(format string, args ...any)
}

// HarnessNode is one fleet member plus its listener.
type HarnessNode struct {
	Name  string // host:port — the node's ring identity
	URL   string
	Node  *Node
	Store *store.Store

	srv *http.Server
	ln  net.Listener
	// serveDone closes when the node's Serve loop returns, so teardown
	// can observe the serving goroutine actually finish instead of
	// leaving it to die after the test.
	serveDone chan struct{}
	alive     bool
}

// Harness is a running in-process fleet. The embedded Driver is its load
// client (Get, Post, ScrapeNode, Herd, Steady), with Counter as the
// ground truth for generations.
type Harness struct {
	*Driver
	Counter *GenCounter

	mu    sync.Mutex
	nodes []*HarnessNode
}

// StartHarness binds cfg.Nodes loopback listeners, builds a node per
// listener (shared ring, per-node store under cfg.Dir), and serves them.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleetd: harness requires a store directory")
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	counter := NewGenCounter()
	h := &Harness{Driver: NewDriver(cfg.Clock, counter.Total), Counter: counter}
	listeners := make([]net.Listener, 0, cfg.Nodes)
	names := make([]string, 0, cfg.Nodes)
	fail := func(err error) (*Harness, error) {
		for _, ln := range listeners {
			_ = ln.Close()
		}
		h.Close()
		return nil, err
	}
	for i := 0; i < cfg.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("fleetd: harness listener: %w", err))
		}
		listeners = append(listeners, ln)
		names = append(names, ln.Addr().String())
	}
	for i, name := range names {
		st, err := store.Open(filepath.Join(cfg.Dir, fmt.Sprintf("n%d", i)))
		if err != nil {
			return fail(err)
		}
		node, err := NewNode(Config{
			Self:     name,
			Nodes:    names,
			VNodes:   cfg.VNodes,
			Replicas: cfg.Replicas,
			Store:    st,
			Generator: &SyntheticGenerator{
				NodeName:     name,
				Counter:      h.Counter,
				Delay:        cfg.GenDelay,
				Clock:        cfg.Clock,
				PayloadBytes: cfg.PayloadBytes,
			},
			Server: server.Config{
				Workers:        cfg.Workers,
				QueueDepth:     cfg.QueueDepth,
				RequestTimeout: cfg.RequestTimeout,
				Logf: func(format string, args ...any) {
					cfg.Logf("["+name+"] "+format, args...)
				},
			},
			Logf: cfg.Logf,
		})
		if err != nil {
			return fail(err)
		}
		hn := &HarnessNode{
			Name:      name,
			URL:       "http://" + name,
			Node:      node,
			Store:     st,
			srv:       &http.Server{Handler: node.Handler()},
			ln:        listeners[i],
			serveDone: make(chan struct{}),
			alive:     true,
		}
		go func() {
			defer close(hn.serveDone)
			_ = hn.srv.Serve(hn.ln)
		}()
		h.nodes = append(h.nodes, hn)
	}
	return h, nil
}

// Nodes returns the fleet's members in listener order.
func (h *Harness) Nodes() []*HarnessNode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*HarnessNode(nil), h.nodes...)
}

// Alive returns the members still serving.
func (h *Harness) Alive() []*HarnessNode {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*HarnessNode
	for _, hn := range h.nodes {
		if hn.alive {
			out = append(out, hn)
		}
	}
	return out
}

// aliveURLs is what the harness hands its Driver: the live members' base
// URLs, in listener order.
func (h *Harness) aliveURLs() []string {
	var urls []string
	for _, hn := range h.Alive() {
		urls = append(urls, hn.URL)
	}
	return urls
}

// Ring returns the (shared) placement ring.
func (h *Harness) Ring() *Ring { return h.nodes[0].Node.Ring() }

// URLFor returns the base URL serving name ("" if unknown or dead).
func (h *Harness) URLFor(name string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hn := range h.nodes {
		if hn.Name == name && hn.alive {
			return hn.URL
		}
	}
	return ""
}

// Kill terminates the named node abruptly: running generations' contexts
// are canceled and the listener drops every connection — the closest an
// in-process harness gets to kill -9.
func (h *Harness) Kill(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hn := range h.nodes {
		if hn.Name == name && hn.alive {
			hn.alive = false
			hn.Node.Kill()
			_ = hn.srv.Close()
			<-hn.serveDone
			return true
		}
	}
	return false
}

// Close drains and stops every live node.
func (h *Harness) Close() {
	h.mu.Lock()
	nodes := append([]*HarnessNode(nil), h.nodes...)
	h.mu.Unlock()
	for _, hn := range nodes {
		if !hn.alive {
			continue
		}
		hn.alive = false
		_ = hn.Node.Close()
		_ = hn.srv.Close()
		<-hn.serveDone
	}
	h.Driver.Close()
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
