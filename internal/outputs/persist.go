package outputs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"smokescreen/internal/scene"
)

// Disk-backed persistence for column tables. Computing a corpus's full
// column set at ten resolutions costs minutes of simulated inference; the
// rows are deterministic functions of (corpus seed, model, resolution), so
// they persist safely across processes. cmd/smokebench exposes this via
// -cache.
//
// File format v2 (little-endian), one file per (corpus, model, resolution)
// column table:
//
//	magic "SOUT" | u16 version=2 | name | seed | W | H | N | model | p
//	| numClasses byte | kind byte | payload
//
// kind 0 (full): N rows of numClasses varint counts. kind 1 (sparse):
// varint m, then m x (varint frame index, numClasses varint counts).
// Version 1 files (the pre-column-store per-class series) are skipped on
// load, like any other mismatch — a stale cache must never poison results.
const (
	storeMagic   = "SOUT"
	storeVersion = 2
)

// storeFileName derives a stable file name for a column table.
func storeFileName(v *scene.Video, model string, p int) string {
	return fmt.Sprintf("%s-%x-%s-p%d.sout", v.Config.Name, v.Config.Seed, model, p)
}

// SaveOutputs persists every column table of the corpus into dir (created
// if needed) and returns the number of tables written.
func SaveOutputs(v *scene.Video, dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	type entry struct {
		key colKey
		t   *table
	}
	storeMu.Lock()
	var entries []entry
	for key, t := range tables {
		if key.video == v {
			entries = append(entries, entry{key, t})
		}
	}
	storeMu.Unlock()
	// Write order must not inherit map-iteration order: persisted artifact
	// sets should be enumerable in a stable order across runs.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key.model != entries[j].key.model {
			return entries[i].key.model < entries[j].key.model
		}
		return entries[i].key.p < entries[j].key.p
	})

	written := 0
	for _, e := range entries {
		e.t.mu.Lock()
		full := e.t.full
		var rows map[int]vec
		if full == nil {
			rows = make(map[int]vec, len(e.t.rows))
			for f, r := range e.t.rows {
				rows[f] = r
			}
		}
		e.t.mu.Unlock()
		if full == nil && len(rows) == 0 {
			continue
		}
		path := filepath.Join(dir, storeFileName(v, e.key.model, e.key.p))
		if err := writeTable(path, v, e.key, full, rows); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

// WarmOutputs loads every persisted column table in dir that matches the
// corpus, returning the number loaded. Mismatched, stale-version, or
// corrupt files are skipped and reported through the skipped count.
func WarmOutputs(v *scene.Video, dir string) (loaded, skipped int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	for _, entry := range entries {
		if entry.IsDir() || filepath.Ext(entry.Name()) != ".sout" {
			continue
		}
		key, full, rows, readErr := readTable(filepath.Join(dir, entry.Name()), v)
		if readErr != nil {
			skipped++
			continue
		}
		storeMu.Lock()
		t, ok := tables[key]
		if !ok {
			t = &table{
				n:     v.NumFrames(),
				rows:  make(map[int]vec),
				claim: make(map[int]chan struct{}),
				proj:  make(map[scene.Class][]float64),
			}
			tables[key] = t
		}
		storeMu.Unlock()
		t.mu.Lock()
		if t.full == nil {
			if full != nil {
				t.full = full
				t.rows = make(map[int]vec)
			} else {
				for f, r := range rows {
					if _, exists := t.rows[f]; !exists {
						t.rows[f] = r
					}
				}
			}
		}
		t.mu.Unlock()
		loaded++
	}
	return loaded, skipped, nil
}

func writeTable(path string, v *scene.Video, key colKey, full []vec, rows map[int]vec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	buf := make([]byte, 0, 128)
	buf = append(buf, storeMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, storeVersion)
	buf = appendStoreString(buf, v.Config.Name)
	buf = binary.AppendUvarint(buf, v.Config.Seed)
	buf = binary.AppendUvarint(buf, uint64(v.Config.Width))
	buf = binary.AppendUvarint(buf, uint64(v.Config.Height))
	buf = binary.AppendUvarint(buf, uint64(v.NumFrames()))
	buf = appendStoreString(buf, key.model)
	buf = binary.AppendUvarint(buf, uint64(key.p))
	buf = append(buf, byte(scene.NumClasses))
	if full != nil {
		buf = append(buf, 0) // kind: full
	} else {
		buf = append(buf, 1) // kind: sparse
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
	}
	if _, err := w.Write(buf); err != nil {
		f.Close()
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeRow := func(r vec) error {
		for _, x := range r {
			if x < 0 || x != float64(uint64(x)) {
				return fmt.Errorf("outputs: row value %v is not a count", x)
			}
			n := binary.PutUvarint(scratch[:], uint64(x))
			if _, err := w.Write(scratch[:n]); err != nil {
				return err
			}
		}
		return nil
	}
	if full != nil {
		for _, r := range full {
			if err := writeRow(r); err != nil {
				f.Close()
				return err
			}
		}
	} else {
		// Deterministic order keeps files reproducible.
		idx := make([]int, 0, len(rows))
		for i := range rows {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			n := binary.PutUvarint(scratch[:], uint64(i))
			if _, err := w.Write(scratch[:n]); err != nil {
				f.Close()
				return err
			}
			if err := writeRow(rows[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTable(path string, v *scene.Video) (colKey, []vec, map[int]vec, error) {
	f, err := os.Open(path)
	if err != nil {
		return colKey{}, nil, nil, err
	}
	defer f.Close()
	return decodeTable(bufio.NewReader(f), v)
}

// decodeTable parses one SOUT v2 column table from r and validates it
// against the corpus. It is the pure decode half of readTable: the input
// may be a torn write or arbitrary garbage (WarmOutputs skips bad files
// rather than failing the warm), so every malformation must surface as an
// error, never a panic or an unbounded allocation. The fuzz target pins
// that property.
func decodeTable(r *bufio.Reader, v *scene.Video) (colKey, []vec, map[int]vec, error) {
	var key colKey
	head := make([]byte, len(storeMagic)+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return key, nil, nil, err
	}
	if string(head[:4]) != storeMagic {
		return key, nil, nil, errors.New("outputs: bad store magic")
	}
	if binary.LittleEndian.Uint16(head[4:]) != storeVersion {
		return key, nil, nil, errors.New("outputs: unsupported store version")
	}
	name, err := readStoreString(r)
	if err != nil {
		return key, nil, nil, err
	}
	fields := [4]uint64{}
	for i := range fields {
		if fields[i], err = binary.ReadUvarint(r); err != nil {
			return key, nil, nil, err
		}
	}
	seed, width, height, n := fields[0], int(fields[1]), int(fields[2]), int(fields[3])
	if name != v.Config.Name || seed != v.Config.Seed || width != v.Config.Width ||
		height != v.Config.Height || n != v.NumFrames() {
		return key, nil, nil, errors.New("outputs: store does not match the corpus")
	}
	model, err := readStoreString(r)
	if err != nil {
		return key, nil, nil, err
	}
	p64, err := binary.ReadUvarint(r)
	if err != nil {
		return key, nil, nil, err
	}
	nc, err := r.ReadByte()
	if err != nil {
		return key, nil, nil, err
	}
	if nc != scene.NumClasses {
		return key, nil, nil, errors.New("outputs: class-count mismatch")
	}
	kind, err := r.ReadByte()
	if err != nil {
		return key, nil, nil, err
	}
	key = colKey{video: v, model: model, p: int(p64)}
	readRow := func() (vec, error) {
		var row vec
		for c := range row {
			x, err := binary.ReadUvarint(r)
			if err != nil {
				return row, err
			}
			row[c] = float64(x)
		}
		return row, nil
	}
	switch kind {
	case 0:
		full := make([]vec, n)
		for i := range full {
			row, err := readRow()
			if err != nil {
				return key, nil, nil, fmt.Errorf("outputs: truncated table at %d: %w", i, err)
			}
			full[i] = row
		}
		if _, err := r.ReadByte(); err != io.EOF {
			return key, nil, nil, errors.New("outputs: trailing data in store file")
		}
		return key, full, nil, nil
	case 1:
		m, err := binary.ReadUvarint(r)
		if err != nil || m > uint64(n) {
			return key, nil, nil, errors.New("outputs: corrupt sparse count")
		}
		rows := make(map[int]vec, m)
		for j := uint64(0); j < m; j++ {
			idx, err := binary.ReadUvarint(r)
			if err != nil || idx >= uint64(n) {
				return key, nil, nil, errors.New("outputs: corrupt sparse index")
			}
			row, err := readRow()
			if err != nil {
				return key, nil, nil, errors.New("outputs: truncated sparse table")
			}
			rows[int(idx)] = row
		}
		if _, err := r.ReadByte(); err != io.EOF {
			return key, nil, nil, errors.New("outputs: trailing data in store file")
		}
		return key, nil, rows, nil
	default:
		return key, nil, nil, errors.New("outputs: unknown store kind")
	}
}

func appendStoreString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readStoreString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<12 {
		return "", errors.New("outputs: corrupt string length")
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return "", err
	}
	return string(out), nil
}
