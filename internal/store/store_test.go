package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testKey derives a valid hex key from a label.
func testKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"value":%d}`, i))
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("roundtrip")
	payload := payloadFor(1)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mangled: %s", got)
	}
	// Mutating the returned slice must not poison later reads.
	got[0] = 'X'
	again, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("cache shares memory with callers")
	}
}

func TestGetMissingReturnsNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(testKey("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", testKey("x") + "/../y"} {
		if err := s.Put(key, payloadFor(0)); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get accepted key %q", key)
		}
	}
}

func TestPutSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	key := testKey("restart")
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key, payloadFor(7)); err != nil {
		t.Fatal(err)
	}
	// A second store over the same root (a restarted daemon) must read
	// the artifact from disk, not memory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloadFor(7)) {
		t.Fatalf("restart lost payload: %s", got)
	}
	if stats := s2.Stats(); stats.DiskHits != 1 {
		t.Fatalf("expected one disk hit, got %+v", stats)
	}
}

func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCacheBudget(0)) // force disk reads
	if err != nil {
		t.Fatal(err)
	}
	good, bad := testKey("good"), testKey("torn")
	if err := s.Put(good, payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, payloadFor(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write surviving a crash: truncate the file mid-JSON.
	path := filepath.Join(dir, bad[:2], bad+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Get returns a typed error, not a crash and not ErrNotFound.
	var corrupt *CorruptError
	if _, err := s.Get(bad); !errors.As(err, &corrupt) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if corrupt.Key != bad {
		t.Fatalf("corrupt error names key %s, want %s", corrupt.Key, bad)
	}

	// The scan skips the damaged entry and still lists the healthy one.
	keys, corruptErrs := s.Keys()
	if len(keys) != 1 || keys[0] != good {
		t.Fatalf("scan keys = %v, want [%s]", keys, good)
	}
	if len(corruptErrs) != 1 {
		t.Fatalf("scan corrupt = %v, want one entry", corruptErrs)
	}

	// Regeneration overwrites the corrupt file and heals the entry.
	if err := s.Put(bad, payloadFor(2)); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(bad); err != nil || !bytes.Equal(got, payloadFor(2)) {
		t.Fatalf("heal failed: %s, %v", got, err)
	}
}

func TestChecksumMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCacheBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("bitrot")
	if err := s.Put(key, []byte(`{"value":111}`)); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes while keeping the envelope valid JSON.
	path := filepath.Join(dir, key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := bytes.Replace(data, []byte(`111`), []byte(`999`), 1)
	if bytes.Equal(rotted, data) {
		t.Fatal("test setup: payload not found in envelope")
	}
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	var corrupt *CorruptError
	if _, err := s.Get(key); !errors.As(err, &corrupt) {
		t.Fatalf("bit rot undetected: %v", err)
	}
}

func TestEmptyPayloadRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey("empty"), nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := s.Put(testKey("notjson"), []byte("not json")); err == nil {
		t.Fatal("non-JSON payload accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits two payloads; inserting a third evicts the least
	// recently used, which is then still served from disk.
	payload := func(i int) []byte { return payloadFor(i) }
	budget := int64(2 * len(payload(0)))
	s, err := Open(t.TempDir(), WithCacheBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	k := []string{testKey("a"), testKey("b"), testKey("c")}
	for i, key := range k[:2] {
		if err := s.Put(key, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k[0] so k[1] is the LRU victim.
	if _, err := s.Get(k[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k[2], payload(2)); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.CacheCount != 2 || stats.CacheBytes > budget {
		t.Fatalf("cache out of budget: %+v", stats)
	}
	before := stats.DiskHits
	if got, err := s.Get(k[1]); err != nil || !bytes.Equal(got, payload(1)) {
		t.Fatalf("evicted entry unreadable: %v", err)
	}
	if s.Stats().DiskHits != before+1 {
		t.Fatal("evicted entry did not fall back to disk")
	}
}

func TestConcurrentSameKey(t *testing.T) {
	// Parallel writers and readers on one key: every read observes some
	// complete payload (never torn, never corrupt). Run under -race by
	// make test-race.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("contended")
	if err := s.Put(key, payloadFor(0)); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 4, 8, 50
	valid := make(map[string]bool)
	for i := 0; i <= writers*rounds; i++ {
		valid[string(payloadFor(i%writers))] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Put(key, payloadFor(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := s.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if !valid[string(got)] {
					t.Errorf("torn read: %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	// No temp-file litter left behind.
	entries, err := os.ReadDir(filepath.Join(s.Root(), key[:2]))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("shard has %d files, want 1 (temp litter?)", len(entries))
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s, err := Open(t.TempDir(), WithCacheBudget(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := testKey(fmt.Sprintf("key-%d", i))
			if err := s.Put(key, payloadFor(i)); err != nil {
				t.Error(err)
				return
			}
			got, err := s.Get(key)
			if err != nil || !bytes.Equal(got, payloadFor(i)) {
				t.Errorf("key %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	keys, corrupt := s.Keys()
	if len(keys) != n || len(corrupt) != 0 {
		t.Fatalf("scan found %d keys, %d corrupt; want %d, 0", len(keys), len(corrupt), n)
	}
}

func TestDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("delete")
	if err := s.Put(key, payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still loads: %v", err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestEnvelopeTransferRoundTrip pins the fleet replication transfer unit:
// GetEnvelope on one store, PutEnvelope on another, byte-identical file.
func TestEnvelopeTransferRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("envelope-roundtrip")
	payload := payloadFor(7)
	if err := src.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	env, err := src.GetEnvelope(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.PutEnvelope(key, env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("PutEnvelope returned %s, want %s", got, payload)
	}
	// The replica file is byte-identical to the original — creation time
	// and checksum travel with the envelope.
	srcFile, err := os.ReadFile(src.path(key))
	if err != nil {
		t.Fatal(err)
	}
	dstFile, err := os.ReadFile(dst.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srcFile, dstFile) {
		t.Fatal("replica envelope differs from the original file")
	}
	if served, err := dst.Get(key); err != nil || !bytes.Equal(served, payload) {
		t.Fatalf("replica Get = %s, %v", served, err)
	}
}

// TestPutEnvelopeRejectsTampered extends the torn-write tests across the
// transfer boundary: a corrupted envelope must never reach a replica's
// disk, and the failure is a typed *CorruptError.
func TestPutEnvelopeRejectsTampered(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("envelope-tampered")
	if err := src.Put(key, payloadFor(3)); err != nil {
		t.Fatal(err)
	}
	env, err := src.GetEnvelope(key)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"torn":      env[:len(env)/2],
		"bit-flip":  bytes.Replace(env, []byte(`"value":3`), []byte(`"value":4`), 1),
		"wrong-key": env, // presented under a different key
	}
	for name, data := range cases {
		dst, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		putKey := key
		if name == "wrong-key" {
			putKey = testKey("some-other-artifact")
		}
		var corrupt *CorruptError
		if _, err := dst.PutEnvelope(putKey, data); !errors.As(err, &corrupt) {
			t.Errorf("%s: PutEnvelope error = %v, want *CorruptError", name, err)
		}
		if _, err := os.Stat(dst.path(putKey)); !os.IsNotExist(err) {
			t.Errorf("%s: rejected envelope reached disk", name)
		}
	}
}

// TestGetEnvelopeValidates: a corrupt on-disk file must not be served as
// a transfer source — replication would otherwise spread the corruption.
func TestGetEnvelopeValidates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("envelope-validates")
	if err := s.Put(key, payloadFor(9)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	var corrupt *CorruptError
	if _, err := s.GetEnvelope(key); !errors.As(err, &corrupt) {
		t.Fatalf("GetEnvelope on torn file = %v, want *CorruptError", err)
	}
	if _, err := s.GetEnvelope(testKey("never-stored")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetEnvelope on missing key = %v, want ErrNotFound", err)
	}
}

// TestPutPrettyPayloadSurvivesReload pins the canonicalization contract:
// a pretty-printed payload (what profile.SaveProfile emits) must read
// back identically from the warm cache, from a cold disk read, and
// through the envelope transfer path. Before canonicalization, the
// envelope encoder compacted the payload on write while the checksum
// covered the indented original — so every cold read of a real profile
// misreported *CorruptError and a fleet could never replicate one.
func TestPutPrettyPayloadSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("pretty")
	pretty := []byte("{\n  \"version\": 1,\n  \"note\": \"a < b && c > d\",\n  \"points\": [\n    {\"fraction\": 0.05}\n  ]\n}\n")
	canonical := []byte(`{"version":1,"note":"a < b && c > d","points":[{"fraction":0.05}]}`)
	if err := s.Put(key, pretty); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, canonical) {
		t.Fatalf("warm read = %s, want canonical %s", warm, canonical)
	}
	// Cold read: the restart path that used to flag the artifact corrupt.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s2.Get(key)
	if err != nil {
		t.Fatalf("cold read of a pretty-printed payload: %v", err)
	}
	if !bytes.Equal(cold, canonical) {
		t.Fatalf("cold read = %s, want canonical %s", cold, canonical)
	}
	// Envelope transfer: replication of the same artifact must validate.
	env, err := s2.GetEnvelope(key)
	if err != nil {
		t.Fatalf("GetEnvelope after pretty Put: %v", err)
	}
	replica, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.PutEnvelope(key, env)
	if err != nil {
		t.Fatalf("PutEnvelope of transferred envelope: %v", err)
	}
	if !bytes.Equal(got, canonical) {
		t.Fatalf("replica payload = %s, want canonical %s", got, canonical)
	}
	// The startup scan must count it as loadable, not corrupt.
	keys, corrupt := s2.Keys()
	if len(corrupt) != 0 {
		t.Fatalf("scan flagged corruption: %v", corrupt)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("scan keys = %v", keys)
	}
}

// sealedEnvelope returns the envelope a fresh store writes for (key, payload).
func sealedEnvelope(t testing.TB, key string, payload []byte) []byte {
	t.Helper()
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	env, err := src.GetEnvelope(key)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// rootFiles lists every regular file under a store's root.
func rootFiles(t testing.TB, s *Store) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(s.Root(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestAdmitEnvelopeIsMemoryOnly: a valid envelope is served by Get from
// memory, and the disk, Keys and GetEnvelope never learn of it.
func TestAdmitEnvelopeIsMemoryOnly(t *testing.T) {
	key, payload := testKey("admit"), payloadFor(11)
	env := sealedEnvelope(t, key, payload)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.AdmitEnvelope(key, env)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("AdmitEnvelope = %s, %v", got, err)
	}
	got[0] = 'X' // the returned slice is the caller's own
	if served, err := s.Get(key); err != nil || !bytes.Equal(served, payload) {
		t.Fatalf("Get after admission = %s, %v", served, err)
	}
	if st := s.Stats(); st.Hits != 1 || st.DiskHits != 0 || st.Puts != 0 || st.CacheCount != 1 {
		t.Fatalf("admission was not a pure cache fill: %+v", st)
	}
	if files := rootFiles(t, s); len(files) != 0 {
		t.Fatalf("admission wrote under the root: %v", files)
	}
	if keys, corrupt := s.Keys(); len(keys) != 0 || len(corrupt) != 0 {
		t.Fatalf("Keys after admission = %v, %v", keys, corrupt)
	}
	if _, err := s.GetEnvelope(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetEnvelope of an admitted key = %v, want ErrNotFound", err)
	}
	// A restart (or an Invalidate) simply forgets the copy.
	s.Invalidate(key)
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Invalidate = %v, want ErrNotFound", err)
	}
}

// TestAdmitEnvelopeRejectsInvalid: what PutEnvelope refuses, AdmitEnvelope
// refuses, and nothing is cached.
func TestAdmitEnvelopeRejectsInvalid(t *testing.T) {
	key := testKey("admit-invalid")
	env := sealedEnvelope(t, key, payloadFor(3))
	cases := []struct {
		name string
		key  string
		data []byte
	}{
		{"key mismatch", testKey("some-other-artifact"), env},
		{"bad checksum", key, bytes.Replace(env, []byte(`"value":3`), []byte(`"value":4`), 1)},
		{"bad version", key, bytes.Replace(env, []byte(`"version":1,"key"`), []byte(`"version":99,"key"`), 1)},
		{"torn", key, env[:len(env)/2]},
	}
	for _, c := range cases {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var corrupt *CorruptError
		if _, err := s.AdmitEnvelope(c.key, c.data); !errors.As(err, &corrupt) {
			t.Errorf("%s: AdmitEnvelope error = %v, want *CorruptError", c.name, err)
		}
		if _, err := s.Get(c.key); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: rejected envelope is readable: %v", c.name, err)
		}
		if st := s.Stats(); st.CacheCount != 0 {
			t.Errorf("%s: rejected envelope was cached: %+v", c.name, st)
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitEnvelope("../escape", env); err == nil {
		t.Error("AdmitEnvelope accepted a malformed key")
	}
}

// TestAdmitEnvelopeBudget: a zero budget and an over-budget payload admit
// nothing (the verified payload still comes back), and an admitted entry is
// evicted least-recently-used first like a stored one.
func TestAdmitEnvelopeBudget(t *testing.T) {
	size := int64(len(payloadFor(0)))
	for name, budget := range map[string]int64{"zero budget": 0, "over budget": size - 1} {
		s, err := Open(t.TempDir(), WithCacheBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(name)
		got, err := s.AdmitEnvelope(key, sealedEnvelope(t, key, payloadFor(0)))
		if err != nil || !bytes.Equal(got, payloadFor(0)) {
			t.Fatalf("%s: AdmitEnvelope = %s, %v", name, got, err)
		}
		if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Get = %v, want ErrNotFound", name, err)
		}
		if st := s.Stats(); st.CacheCount != 0 || st.CacheBytes != 0 {
			t.Fatalf("%s: something was cached: %+v", name, st)
		}
	}

	// Budget for two: admitted a, stored b, touched a, stored c -> b is the
	// victim, not a; two more admissions then push a out, and it has no
	// disk copy to come back from.
	s, err := Open(t.TempDir(), WithCacheBudget(2*size))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := testKey("a"), testKey("b"), testKey("c"), testKey("d")
	if _, err := s.AdmitEnvelope(a, sealedEnvelope(t, a, payloadFor(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, payloadFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c, payloadFor(3)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheCount != 2 || st.CacheBytes > 2*size {
		t.Fatalf("cache out of budget: %+v", st)
	}
	if _, err := s.Get(a); err != nil {
		t.Fatalf("the touched admitted entry was evicted before the older stored one: %v", err)
	}
	if _, err := s.AdmitEnvelope(d, sealedEnvelope(t, d, payloadFor(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdmitEnvelope(b, sealedEnvelope(t, b, payloadFor(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted admitted entry: Get = %v, want ErrNotFound", err)
	}
}
