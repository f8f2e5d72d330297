package outputs

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"smokescreen/internal/dataset"
)

// FuzzOutputsDecode pins WarmOutputs' skip-don't-crash contract at the
// byte level: decodeTable reads SOUT v2 files that may be torn writes or
// arbitrary garbage, and every malformation must surface as an error —
// never a panic, out-of-range row index, or unbounded allocation.
func FuzzOutputsDecode(f *testing.F) {
	v := dataset.MustLoad("small")
	n := v.NumFrames()
	dir := f.TempDir()
	key := colKey{video: v, model: "yolov4-sim", p: 160}

	// Seed with real artifacts from the writer: one full table, one
	// sparse table, so the corpus starts from both on-disk kinds.
	full := make([]vec, n)
	for i := range full {
		full[i][0] = float64(i % 3)
		full[i][1] = float64(i % 2)
	}
	fullPath := filepath.Join(dir, "full.sout")
	if err := writeTable(fullPath, v, key, full, nil); err != nil {
		f.Fatal(err)
	}
	fullData, err := os.ReadFile(fullPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fullData)

	sparse := map[int]vec{0: {1}, 3: {0, 2}, n - 1: {5}}
	sparsePath := filepath.Join(dir, "sparse.sout")
	if err := writeTable(sparsePath, v, key, nil, sparse); err != nil {
		f.Fatal(err)
	}
	sparseData, err := os.ReadFile(sparsePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sparseData)

	// Structured corruptions: truncation (torn write), flipped bytes in
	// the header and body, and degenerate inputs.
	f.Add(fullData[:len(fullData)/2])
	f.Add(sparseData[:len(sparseData)-1])
	flipped := append([]byte(nil), sparseData...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("SOUT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		k, gotFull, gotRows, err := decodeTable(bufio.NewReader(bytes.NewReader(b)), v)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent: exactly one
		// representation, sized and indexed within the corpus.
		if k.video != v {
			t.Fatalf("decoded key %+v does not bind to the corpus", k)
		}
		if (gotFull == nil) == (gotRows == nil) {
			t.Fatal("decode returned both or neither table representation")
		}
		if gotFull != nil && len(gotFull) != n {
			t.Fatalf("full table has %d rows, corpus has %d frames", len(gotFull), n)
		}
		for idx := range gotRows {
			if idx < 0 || idx >= n {
				t.Fatalf("sparse row index %d out of corpus range [0,%d)", idx, n)
			}
		}
	})
}
