package fleetd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// This file is the fleet tests' bench: an in-process harness that stands
// up three real nodes on loopback listeners — real sockets, so forwarding,
// keep-alive pooling, and connection-refused failover behave exactly as
// across machines — plus a synthetic generator whose per-node invocation
// counters prove the dedup invariants (the hot-key herd must cost exactly
// one generation fleet-wide). The tests drive it with the same Driver
// scenarios cmd/smokeload runs against real daemons.

// GenCounter records which node started generating which key. It is the
// harness's ground truth for the dedup invariants. It also counts Key
// calls: every hop of a POST keys the request once.
type GenCounter struct {
	mu     sync.Mutex
	perKey map[string]int
	byNode map[string]map[string]int
	keys   atomic.Int64
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

// Keys returns how many times a request was keyed, fleet-wide.
func (c *GenCounter) Keys() int64 { return c.keys.Load() }

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
// for a delay so scenarios can observe (and interrupt) in-flight work.
type SyntheticGenerator struct {
	// NodeName labels this generator's invocations in Counter.
	NodeName string
	// Counter receives invocation records; nil disables counting.
	Counter *GenCounter
	// Delay holds each generation open (0 = instant); canceled contexts
	// interrupt the hold.
	Delay time.Duration
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
	if g.Counter != nil {
		g.Counter.keys.Add(1)
	}
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
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(g.Delay):
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

const (
	// harnessNodes is the in-process fleet's size.
	harnessNodes = 3
	// harnessRequestTimeout is each node's synchronous POST wait: long
	// enough that no scenario's hold degrades a POST to 202.
	harnessRequestTimeout = 30 * time.Second
)

// HarnessConfig assembles an in-process fleet.
type HarnessConfig struct {
	// GenDelay holds each synthetic generation open.
	GenDelay time.Duration
	// Dir is the root for per-node store directories. Required; the
	// caller owns cleanup (tests pass t.TempDir()).
	Dir string
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

// StartHarness binds harnessNodes loopback listeners, builds a node per
// listener (shared ring, per-node store under cfg.Dir), and serves them.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleetd: harness requires a store directory")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	counter := NewGenCounter()
	h := &Harness{Driver: NewDriver(counter.Total), Counter: counter}
	listeners := make([]net.Listener, 0, harnessNodes)
	names := make([]string, 0, harnessNodes)
	fail := func(err error) (*Harness, error) {
		for _, ln := range listeners {
			_ = ln.Close()
		}
		h.Close()
		return nil, err
	}
	for i := 0; i < harnessNodes; i++ {
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
			Self:      name,
			Nodes:     names,
			Store:     st,
			Generator: &SyntheticGenerator{NodeName: name, Counter: h.Counter, Delay: cfg.GenDelay},
			Server: server.Config{
				RequestTimeout: harnessRequestTimeout,
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
