// Package store implements the content-addressed, versioned on-disk
// profile store behind the Smokescreen profile service. Artifacts —
// serialized tradeoff curves and hypercubes — are keyed by the canonical
// hash of everything they depend on (profile.KeySpec.CanonicalKey), so
// equal requests address equal bytes and expensive generation work is
// reused across every consumer of the daemon.
//
// Design:
//
//   - Layout. An artifact with key K lives at <root>/K[:2]/K.json; the
//     two-character shard prefix keeps directories small under millions of
//     profiles. Each file is a small JSON envelope (version, key, payload
//     checksum, creation time) wrapping the artifact bytes verbatim.
//   - Durability. Writes go to a temp file in the same shard directory and
//     are renamed into place, so a crash — or a SIGTERM mid-generation —
//     never leaves a half-written artifact at a live key. Rename is atomic
//     on POSIX filesystems.
//   - Corruption tolerance. A torn or bit-rotted file surfaces as a typed
//     *CorruptError from Get, and Keys skips it rather than failing the
//     scan; the daemon re-generates past it instead of crashing.
//   - Caching. A byte-budgeted in-memory LRU fronts the disk; hits serve
//     without touching the filesystem. Payload slices handed out are
//     copies, so callers cannot poison the cache.
//
// The store is safe for concurrent use by any number of goroutines.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// envelopeVersion versions the on-disk envelope schema.
const envelopeVersion = 1

// ErrNotFound reports a key with no stored artifact.
var ErrNotFound = errors.New("store: artifact not found")

// CorruptError reports an on-disk artifact that failed validation: a torn
// write surviving a crash on a non-atomic filesystem, bit rot, or manual
// tampering. The entry is unusable but the store remains healthy; callers
// regenerate (Put overwrites the corrupt file).
type CorruptError struct {
	Key    string
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: artifact %s corrupt (%s): %s", e.Key, e.Path, e.Reason)
}

// envelope is the on-disk schema wrapping an artifact.
type envelope struct {
	Version     int             `json:"version"`
	Key         string          `json:"key"`
	PayloadSHA  string          `json:"payload_sha256"`
	CreatedUnix int64           `json:"created_unix"`
	Payload     json.RawMessage `json:"payload"`
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	Hits        int64 // Gets served from memory
	DiskHits    int64 // Gets served from disk
	Misses      int64 // Gets that found nothing
	Puts        int64
	CacheBytes  int64 // payload bytes currently cached
	CacheCount  int   // entries currently cached
	CacheBudget int64
}

// Store is a content-addressed artifact store rooted at one directory.
type Store struct {
	root string

	mu    sync.Mutex
	cache *lru

	hits     atomic.Int64
	diskHits atomic.Int64
	misses   atomic.Int64
	puts     atomic.Int64
}

// Option configures Open.
type Option func(*Store)

// WithCacheBudget bounds the in-memory cache's total payload bytes; 0
// disables caching. The default is 64 MiB.
func WithCacheBudget(n int64) Option {
	return func(s *Store) { s.cache = newLRU(n) }
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	s := &Store{root: dir, cache: newLRU(64 << 20)}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// validKey gates keys to what CanonicalKey produces: lowercase hex, long
// enough to shard. It keeps arbitrary strings from escaping the root via
// path separators.
func validKey(key string) error {
	if len(key) < 8 {
		return fmt.Errorf("store: key %q too short", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// path maps a key to its on-disk location.
func (s *Store) path(key string) string {
	return filepath.Join(s.root, key[:2], key+".json")
}

// EnvelopePath returns the on-disk location of key's envelope without
// touching it. Fleet tests and repair tooling use it to inspect (or
// deliberately damage) a specific replica's shard.
func (s *Store) EnvelopePath(key string) string { return s.path(key) }

// Invalidate drops key's cached payload so the next Get re-reads — and
// re-validates — the disk copy, the cold-cache state a process restart
// would produce.
func (s *Store) Invalidate(key string) {
	s.mu.Lock()
	s.cache.remove(key)
	s.mu.Unlock()
}

// Put stores payload under key, replacing any previous artifact. The
// write is atomic: payload is wrapped in a checksummed envelope, written
// to a temp file in the destination shard, fsynced, and renamed into
// place.
//
// The payload is canonicalized (JSON-compacted) first and the CANONICAL
// bytes are what gets checksummed, cached, stored, and later served.
// This is load-bearing: the envelope encoder compacts a RawMessage as it
// writes, so checksumming the caller's pretty-printed bytes would mint an
// envelope whose own checksum never matches its own disk payload — every
// cold read (and every replica copy in a fleet) would misreport the
// artifact as corrupt. Canonical bytes are also what make equal artifacts
// byte-identical across fleet replicas regardless of who generated them.
func (s *Store) Put(key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if len(payload) == 0 {
		return fmt.Errorf("store: empty payload for key %s", key)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, payload); err != nil {
		// Payload must itself be valid JSON to ride in a RawMessage.
		return fmt.Errorf("store: payload for %s is not valid JSON: %w", key, err)
	}
	canonical := compacted.Bytes()
	sum := sha256.Sum256(canonical)
	env := envelope{
		Version:     envelopeVersion,
		Key:         key,
		PayloadSHA:  hex.EncodeToString(sum[:]),
		CreatedUnix: time.Now().Unix(),
		Payload:     json.RawMessage(canonical),
	}
	data, err := marshalEnvelope(&env)
	if err != nil {
		return fmt.Errorf("store: encoding envelope for %s: %w", key, err)
	}
	if err := s.writeEnvelope(key, data); err != nil {
		return err
	}
	s.puts.Add(1)

	s.mu.Lock()
	s.cache.put(key, append([]byte(nil), canonical...))
	s.mu.Unlock()
	return nil
}

// marshalEnvelope encodes an envelope with HTML escaping OFF, so the
// payload lands on disk byte-for-byte as checksummed: the default
// json.Marshal would rewrite <, > and & inside the (already canonical)
// payload, silently breaking the checksum for payloads containing them.
func marshalEnvelope(env *envelope) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeEnvelope atomically publishes raw envelope bytes at key: temp file
// in the destination shard, fsync, rename.
func (s *Store) writeEnvelope(key string, data []byte) error {
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating shard: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+key[:8]+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	// On any failure below, leave no temp litter.
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("store: writing %s: %w", key, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: syncing %s: %w", key, err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("store: closing %s: %w", key, err))
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: publishing %s: %w", key, err)
	}
	return nil
}

// GetEnvelope returns the raw on-disk envelope bytes for key after
// validating them — the transfer unit of fleet replication and read
// repair. Moving whole envelopes (rather than re-wrapping payloads)
// makes a replica copy byte-identical to the original file, creation
// time and checksum included, so repaired replicas are indistinguishable
// from first-hand writes.
func (s *Store) GetEnvelope(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	if _, err := decodeEnvelope(key, path, data); err != nil {
		return nil, err
	}
	return data, nil
}

// PutEnvelope ingests envelope bytes produced by another store's
// GetEnvelope, replacing any previous artifact at key. The envelope is
// fully re-validated first — version, key match, payload checksum — so a
// transfer torn or tampered in flight surfaces as *CorruptError and never
// reaches disk: repair is a verified byte copy. The validated payload is
// returned so repairing readers can serve it without a second read.
func (s *Store) PutEnvelope(key string, data []byte) ([]byte, error) {
	payload, err := s.verifyEnvelope(key, data)
	if err != nil {
		return nil, err
	}
	if err := s.writeEnvelope(key, data); err != nil {
		return nil, err
	}
	s.puts.Add(1)
	return s.admit(key, payload), nil
}

// AdmitEnvelope validates envelope bytes exactly as PutEnvelope does and
// admits the payload to the in-memory cache ONLY: nothing is written under
// the root, so Keys, GetEnvelope and a restarted process never see the
// entry, and the LRU evicts it like any other. A fleet node holds verified
// copies of keys it does not replicate this way. With a zero budget, or a
// payload over the budget, nothing is cached; the validated payload is
// returned either way.
func (s *Store) AdmitEnvelope(key string, data []byte) ([]byte, error) {
	payload, err := s.verifyEnvelope(key, data)
	if err != nil {
		return nil, err
	}
	return s.admit(key, payload), nil
}

// verifyEnvelope is the validation every envelope entering the store from
// outside passes: a well-formed key, then decodeEnvelope's checks.
func (s *Store) verifyEnvelope(key string, data []byte) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	return decodeEnvelope(key, s.path(key), data)
}

// admit caches a verified payload and returns the caller's own copy.
func (s *Store) admit(key string, payload []byte) []byte {
	s.mu.Lock()
	s.cache.put(key, payload)
	s.mu.Unlock()
	return append([]byte(nil), payload...)
}

// Get returns a copy of the artifact payload stored under key. It returns
// ErrNotFound when the key has never been stored and a *CorruptError when
// the on-disk file exists but fails validation.
func (s *Store) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if payload, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return append([]byte(nil), payload...), nil
	}
	s.mu.Unlock()

	payload, err := s.readDisk(key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			s.misses.Add(1)
		}
		return nil, err
	}
	s.diskHits.Add(1)
	return s.admit(key, payload), nil
}

// readDisk loads and validates one envelope from disk.
func (s *Store) readDisk(key string) ([]byte, error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("store: reading %s: %w", key, err)
	}
	return decodeEnvelope(key, path, data)
}

// decodeEnvelope validates raw envelope bytes claimed to hold the artifact
// at key and returns the verified payload. It is the pure decode half of
// readDisk — every byte of input is attacker-controlled from the decoder's
// point of view (the file may be torn, rotted, or tampered), so failures
// must always surface as *CorruptError, never panic. The fuzz target pins
// that property.
func decodeEnvelope(key, path string, data []byte) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, &CorruptError{Key: key, Path: path, Reason: "undecodable envelope: " + err.Error()}
	}
	if env.Version != envelopeVersion {
		return nil, &CorruptError{Key: key, Path: path, Reason: fmt.Sprintf("unsupported envelope version %d", env.Version)}
	}
	if env.Key != key {
		return nil, &CorruptError{Key: key, Path: path, Reason: "envelope names key " + env.Key}
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.PayloadSHA {
		return nil, &CorruptError{Key: key, Path: path, Reason: "payload checksum mismatch"}
	}
	return []byte(env.Payload), nil
}

// Delete removes an artifact from disk and memory. Deleting a missing key
// is a no-op.
func (s *Store) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	s.cache.remove(key)
	s.mu.Unlock()
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %s: %w", key, err)
	}
	return nil
}

// Keys scans the store and returns the sorted keys of every loadable
// artifact. Corrupt or foreign files are skipped (returned in the second
// slice as *CorruptError), never fatal: a damaged entry costs one
// regeneration, not the store.
func (s *Store) Keys() ([]string, []error) {
	var keys []string
	var corrupt []error
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return nil, []error{fmt.Errorf("store: scanning root: %w", err)}
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.root, shard.Name()))
		if err != nil {
			corrupt = append(corrupt, err)
			continue
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
				continue
			}
			key := strings.TrimSuffix(name, ".json")
			if validKey(key) != nil || !strings.HasPrefix(key, shard.Name()) {
				continue
			}
			if _, err := s.readDisk(key); err != nil {
				corrupt = append(corrupt, err)
				continue
			}
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, corrupt
}

// Stats snapshots store activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes, count, budget := s.cache.bytes, s.cache.count(), s.cache.budget
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		CacheBytes:  bytes,
		CacheCount:  count,
		CacheBudget: budget,
	}
}
