// Package fleetd scales the single-process profile service
// (internal/server, DESIGN.md §5.3) to a horizontally sharded fleet of
// smokescreend nodes. It owns the three distributed-systems pieces the
// single daemon never needed:
//
//   - Placement. A consistent-hash ring with virtual nodes maps every
//     canonical profile key to an ordered replica set of node base URLs.
//     Placement is a pure function of the node set, so every node — and
//     every process restart — computes identical routing with no
//     coordination traffic.
//   - Replication. Each artifact is stored on R replicas: the generating
//     node fans the checksummed store envelope out to its peers after the
//     local write, and a replica that finds its copy missing or corrupt
//     on read repairs it with a verified byte copy fetched from another
//     replica (store.PutEnvelope re-validates the checksum before the
//     atomic write, so a torn or tampered transfer can never land).
//   - Generation dedup. Every POST that must generate a key is routed to
//     the key's first reachable replica, in ring order, whose job queue
//     (internal/server's jobSet) coalesces concurrent requests onto one
//     generation. A dead replica refuses the connect and the next one in
//     ring order takes the key over; no coordination state is kept.
//
// Nodes forward requests for keys they do not replicate over pooled
// keep-alive connections, coalescing duplicate in-flight remote fetches
// through a routing-layer singleflight so a thundering herd on one hot
// key costs one upstream request per node, not one per client.
package fleetd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// vnodes is the virtual-node count per physical node. 64 vnodes keeps the
// max/mean key imbalance under ~20% for small fleets while the ring stays
// tiny (N*64 points). It is a constant, not a setting: every fleet member
// must place keys identically, so a per-node value could only mis-route.
const vnodes = 64

// DefaultReplicas is the replication factor R: each artifact lives on the
// key's owner plus R-1 successors.
const DefaultReplicas = 2

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// Ring is an immutable consistent-hash ring over node base URLs. Build
// with NewRing.
type Ring struct {
	nodes    []string // sorted, unique
	replicas int
	points   []ringPoint // sorted by hash
}

// NewRing builds a ring. nodes are de-duplicated and sorted, so the same
// node *set* always yields the same ring regardless of spelling order;
// replicas takes the package default when <= 0 and is clamped to the node
// count.
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleetd: ring requires at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		n = strings.TrimRight(strings.TrimSpace(n), "/")
		if n == "" {
			return nil, fmt.Errorf("fleetd: ring has an empty node name")
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	if replicas > len(uniq) {
		replicas = len(uniq)
	}
	r := &Ring{
		nodes:    uniq,
		replicas: replicas,
		points:   make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, node := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashPoint(node, v),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (astronomically unlikely) break on node index so the
		// sort — and therefore placement — stays deterministic.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// ParseNodes splits a comma-separated node list (the -fleet-nodes flag /
// SMOKESCREEND_FLEET_NODES form), dropping empty elements.
func ParseNodes(s string) []string {
	var nodes []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			nodes = append(nodes, part)
		}
	}
	return nodes
}

// hashPoint places one virtual node: the first 8 bytes of
// SHA-256("node\n<vnode>") as a big-endian integer. SHA-256 keeps vnode
// spread uniform and, unlike maphash or FNV-of-pointer tricks, is the
// same in every process — the property fleet routing depends on.
func hashPoint(node string, vnode int) uint64 {
	h := sha256.New()
	h.Write([]byte(node))
	h.Write([]byte{'\n'})
	h.Write([]byte(strconv.Itoa(vnode)))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// hashKey maps a profile key onto the ring's hash space.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the sorted node set. Callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// ReplicaCount returns the replication factor R.
func (r *Ring) ReplicaCount() int { return r.replicas }

// Lookup returns the first n distinct nodes clockwise from key's hash:
// the key's owner followed by its successor replicas. n is clamped to the
// node count.
func (r *Ring) Lookup(key string, n int) []string {
	if n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// Owner returns the key's primary node.
func (r *Ring) Owner(key string) string { return r.Lookup(key, 1)[0] }

// Replicas returns the key's full replica set (owner first).
func (r *Ring) Replicas(key string) []string { return r.Lookup(key, r.replicas) }

// IsReplica reports whether node is in key's replica set.
func (r *Ring) IsReplica(key, node string) bool {
	for _, n := range r.Replicas(key) {
		if n == node {
			return true
		}
	}
	return false
}

// Contains reports whether node is a ring member.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}
