package fleetd

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// TestRingDeterministicPlacement pins concrete placements. These goldens
// are what "identical across processes" means operationally: the hash is
// pure SHA-256 of the node and key strings, so any process — today's or
// a future build's — that computes different owners for these keys has
// broken fleet routing, and this test fails before a deploy does.
func TestRingDeterministicPlacement(t *testing.T) {
	ring, err := NewRing([]string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"key-0": "10.0.0.3:7070",
		"key-1": "10.0.0.1:7070",
		"key-2": "10.0.0.2:7070",
		"key-3": "10.0.0.2:7070",
		"key-4": "10.0.0.2:7070",
	}
	for key, want := range golden {
		if got := ring.Replicas(key)[0]; got != want {
			t.Errorf("Replicas(%q)[0] = %s, want %s", key, got, want)
		}
	}
}

// TestRingNodeOrderIrrelevant: the ring is a function of the node SET.
func TestRingNodeOrderIrrelevant(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2", "n2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(500) {
		ra, rb := a.Replicas(key), b.Replicas(key)
		if len(ra) != len(rb) {
			t.Fatalf("replica count diverged for %s", key)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("placement depends on node order: %s -> %v vs %v", key, ra, rb)
			}
		}
	}
}

// TestRingRebalanceBound: adding one node to an N-node ring moves about
// 1/(N+1) of key ownership — the property that makes consistent hashing
// worth its complexity over mod-N. The bound is generous (2x the ideal
// share) because vnode placement is random-ish, but mod-N style hashing
// would move ~N/(N+1) of the keys and fail by a mile.
func TestRingRebalanceBound(t *testing.T) {
	const keys = 4000
	for _, n := range []int{3, 5, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%d.fleet:7070", i)
		}
		before, err := NewRing(nodes, 2)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewRing(append(append([]string(nil), nodes...), "node-new.fleet:7070"), 2)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, key := range testKeys(keys) {
			if before.Replicas(key)[0] != after.Replicas(key)[0] {
				moved++
			}
		}
		ideal := float64(keys) / float64(n+1)
		if float64(moved) > 2*ideal {
			t.Errorf("N=%d: adding a node moved %d/%d keys, want <= ~%.0f (2x ideal 1/(N+1) share)", n, moved, keys, 2*ideal)
		}
		// And every moved key must move TO the new node: consistent
		// hashing never shuffles ownership between existing nodes.
		for _, key := range testKeys(keys) {
			if before.Replicas(key)[0] != after.Replicas(key)[0] && after.Replicas(key)[0] != "node-new.fleet:7070" {
				t.Fatalf("key %s moved between existing nodes: %s -> %s", key, before.Replicas(key)[0], after.Replicas(key)[0])
			}
		}
	}
}

// TestRingReplicasDistinct: replica sets contain no duplicates and the
// owner leads.
func TestRingReplicasDistinct(t *testing.T) {
	ring, err := NewRing([]string{"a", "b", "c"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(300) {
		reps := ring.Replicas(key)
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %v", reps)
		}
		if owner := ring.Lookup(key, 1)[0]; reps[0] != owner {
			t.Fatalf("owner %s does not lead replicas %v", owner, reps)
		}
		seen := map[string]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("duplicate replica in %v", reps)
			}
			seen[r] = true
		}
	}
}

// TestRingBalance: vnodes keep per-node key share within a sane band.
func TestRingBalance(t *testing.T) {
	ring, err := NewRing([]string{"a", "b", "c", "d"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 8000
	for _, key := range testKeys(keys) {
		counts[ring.Replicas(key)[0]]++
	}
	mean := float64(keys) / 4
	for node, c := range counts {
		if float64(c) < 0.5*mean || float64(c) > 1.7*mean {
			t.Errorf("node %s owns %d keys; mean %.0f — imbalance beyond vnode tolerance", node, c, mean)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty node set must be rejected")
	}
	if _, err := NewRing([]string{"  "}, 0); err == nil {
		t.Fatal("blank node name must be rejected")
	}
	ring, err := NewRing([]string{"only"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ring.ReplicaCount() != 1 {
		t.Fatalf("replicas must clamp to node count, got %d", ring.ReplicaCount())
	}
	if !ring.Contains("only") || ring.Contains("other") {
		t.Fatal("Contains misreports membership")
	}
}

func TestParseNodes(t *testing.T) {
	got := ParseNodes(" a:1, ,b:2,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("ParseNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseNodes = %v, want %v", got, want)
		}
	}
}
