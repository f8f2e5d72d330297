package fleetd

import (
	"errors"
	"fmt"

	"smokescreen/internal/store"
)

// replicatedStore is the node's server.Backend: a local content-addressed
// store fronted by R-way fleet replication.
//
//   - Put writes locally first (the generation's durability point), then
//     fans the envelope out to the key's other replicas. Fan-out is
//     best-effort: an unreachable replica costs a counter and a log line,
//     not the generation — read-repair heals it on that replica's next
//     read of the key.
//   - Get serves locally when it can. A miss or a *CorruptError on a key
//     this node replicates triggers read-repair: fetch the envelope from
//     a peer replica, re-validate every byte (store.PutEnvelope), publish
//     it locally with the same atomic rename as a first-hand write, and
//     serve the verified payload. Concurrent readers of one broken key
//     coalesce onto a single repair flight.
//
// Keys this node does not replicate reach the local store too, memory
// only: the routing layer answers a GET or sync re-POST of such a key from
// a verified copy (fetchVerified admits it with store.AdmitEnvelope) and
// forwards to a replica only when no replica could supply one. A sealed
// key's bytes never change, so the copy needs no invalidation; the store's
// LRU budget bounds it and a restart forgets it.
type replicatedStore struct {
	local   *store.Store
	node    *Node
	repairs *flightGroup
}

var _ interface {
	Get(string) ([]byte, error)
	Put(string, []byte) error
	Stats() store.Stats
} = (*replicatedStore)(nil)

func newReplicatedStore(local *store.Store, node *Node) *replicatedStore {
	return &replicatedStore{local: local, node: node, repairs: newFlightGroup()}
}

// Get implements server.Backend with read-repair.
func (rs *replicatedStore) Get(key string) ([]byte, error) {
	payload, err := rs.local.Get(key)
	if err == nil {
		return payload, nil
	}
	var corrupt *store.CorruptError
	if !errors.Is(err, store.ErrNotFound) && !errors.As(err, &corrupt) {
		return nil, err
	}
	repaired, rerr := rs.fetchVerified(key)
	if rerr != nil {
		// No replica could supply a good copy; surface the local error —
		// ErrNotFound drives generation, CorruptError tells the caller to
		// re-POST, exactly as on a single node.
		return nil, err
	}
	if corrupt != nil {
		rs.node.logf("store: repaired corrupt artifact %s from a peer replica", key)
	}
	return repaired, nil
}

// fetchVerified pulls key's envelope from a replica, in ring order, and
// installs the first copy that passes the store's envelope validation:
// persisted when this node replicates key (read-repair), admitted to memory
// only when it does not (an entry-node copy). Concurrent callers share one
// flight, and a flight that starts after another installed the key finds it
// in the store, so a herd of first reads costs one transfer.
func (rs *replicatedStore) fetchVerified(key string) ([]byte, error) {
	peers := rs.node.peers(key)
	if len(peers) == 0 {
		return nil, fmt.Errorf("fleetd: no peer replicates %s", key)
	}
	install, installed := rs.local.AdmitEnvelope, &rs.node.metrics.entryAdmits
	if rs.node.ring.IsReplica(key, rs.node.self) {
		install, installed = rs.local.PutEnvelope, &rs.node.metrics.repairs
	}
	val, err, followed := rs.repairs.do(key, func() (any, error) {
		if payload, err := rs.local.Get(key); err == nil {
			return payload, nil
		}
		for _, peer := range peers {
			env, err := rs.node.fetchEnvelope(peer, key)
			if err != nil {
				continue
			}
			payload, err := install(key, env)
			if err != nil {
				// The transfer failed validation: a torn or tampered copy
				// must not land, and this peer cannot help.
				rs.node.metrics.repairFailures.Add(1)
				rs.node.logf("store: peer %s served an invalid envelope for %s: %v", peer, key, err)
				continue
			}
			installed.Add(1)
			return payload, nil
		}
		return nil, fmt.Errorf("fleetd: no replica could supply %s", key)
	})
	if err != nil {
		return nil, err
	}
	payload := val.([]byte)
	if followed {
		// Followers get their own copy; the leader's slice is shared.
		payload = append([]byte(nil), payload...)
	}
	return payload, nil
}

// Put implements server.Backend: local write, then replica fan-out. A key
// with no peer replica (a ring of one, or one replica per key) is never
// read back.
func (rs *replicatedStore) Put(key string, payload []byte) error {
	if err := rs.local.Put(key, payload); err != nil {
		return err
	}
	peers := rs.node.peers(key)
	if len(peers) == 0 {
		return nil
	}
	env, err := rs.local.GetEnvelope(key)
	if err != nil {
		// The write just succeeded; failing to read it back is a local
		// disk problem. Replicas will read-repair from us later.
		rs.node.metrics.replicaWriteFailures.Add(1)
		rs.node.logf("store: reading back %s for replication: %v", key, err)
		return nil
	}
	for _, peer := range peers {
		if err := rs.node.pushEnvelope(peer, key, env); err != nil {
			rs.node.metrics.replicaWriteFailures.Add(1)
			rs.node.logf("store: replicating %s to %s: %v (read-repair will heal it)", key, peer, err)
			continue
		}
		rs.node.metrics.replicaWrites.Add(1)
	}
	return nil
}

// Stats implements server.Backend with the local store's counters.
func (rs *replicatedStore) Stats() store.Stats { return rs.local.Stats() }
