package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// FuzzEnvelopeDecode pins the store's corruption-tolerance contract at the
// byte level: whatever is on disk — a real envelope, a torn write, bit
// rot, or arbitrary garbage — decodeEnvelope must either return the
// verified payload or a typed *CorruptError. It must never panic and
// never return success for bytes that fail validation.
func FuzzEnvelopeDecode(f *testing.F) {
	const key = "0123456789abcdef"

	// Seed with a real envelope produced by the writer, so the corpus
	// starts from the genuine format rather than random bytes.
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	payload := []byte(`{"fractions":[0.01,0.05,0.1],"bounds":[0.41,0.22,0.09]}`)
	if err := s.Put(key, payload); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	// Structured corruptions of the real envelope: truncation (torn
	// write), a flipped payload bit (rot), and schema-level damage.
	f.Add(data[:len(data)/2])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	f.Add(bytes.Replace(data, []byte(`"version":1`), []byte(`"version":99`), 1))
	f.Add([]byte(`{"version":1,"key":"` + key + `"}`))
	f.Add([]byte("{"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeEnvelope(key, "fuzz", b)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *CorruptError: %v", err)
			}
			return
		}
		// Success means the checksum verified; an envelope naming another
		// key or version must never decode.
		if got == nil {
			t.Fatal("successful decode returned a nil payload")
		}
	})
}

// FuzzAdmitEnvelope pins the admission gate of the memory-only path: for
// any bytes, AdmitEnvelope never panics, fails only with a *CorruptError,
// and caches a payload exactly when decodeEnvelope accepts the same bytes —
// and then exactly that payload. Nothing it is given reaches the disk.
func FuzzAdmitEnvelope(f *testing.F) {
	const key = "0123456789abcdef"
	data := sealedEnvelope(f, key, []byte(`{"fractions":[0.01,0.05,0.1],"bounds":[0.41,0.22,0.09]}`))
	f.Add(data)
	f.Add(data[:len(data)/2])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	f.Add(bytes.Replace(data, []byte(`"version":1`), []byte(`"version":99`), 1))
	f.Add(bytes.Replace(data, []byte(key), []byte("fedcba9876543210"), 1))
	f.Add([]byte{})

	root := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		want, decodeErr := decodeEnvelope(key, "fuzz", b)
		got, err := s.AdmitEnvelope(key, b)
		if (err == nil) != (decodeErr == nil) {
			t.Fatalf("AdmitEnvelope error %v, decodeEnvelope error %v", err, decodeErr)
		}
		cached, getErr := s.Get(key)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("admission error is not a *CorruptError: %v", err)
			}
			if !errors.Is(getErr, ErrNotFound) {
				t.Fatalf("rejected bytes left something readable: %v", getErr)
			}
			return
		}
		if !bytes.Equal(got, want) || getErr != nil || !bytes.Equal(cached, want) {
			t.Fatalf("admitted %q, cached %q (%v), decodeEnvelope verified %q", got, cached, getErr, want)
		}
		if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
			t.Fatalf("admission reached the disk: %v", err)
		}
	})
}
