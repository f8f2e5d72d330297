package codec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"smokescreen/internal/raster"
)

// testFrame renders a deterministic w x h raster with enough structure
// (gradient, noise, a bright box) to give DEFLATE literals and matches.
func testFrame(index, w, h int) *FrameRecord {
	img := raster.New(w, h)
	img.GradientV(0.2, 0.7)
	img.FillRect(raster.RectWH(w/4, h/3, w/5+1, h/6+1), 0.9)
	img.AddNoise(uint64(index)*0x9e3779b97f4a7c15+1, 0.02)
	return &FrameRecord{Index: index, Raster: img}
}

func mustEncode(tb testing.TB, fr *FrameRecord) []byte {
	tb.Helper()
	block, err := EncodeFrame(fr)
	if err != nil {
		tb.Fatal(err)
	}
	return block
}

// assertRoundTrip checks that block decodes to fr's raster as quantised to
// 8 bits and re-encodes to the same bytes.
func assertRoundTrip(tb testing.TB, block []byte, fr *FrameRecord) {
	tb.Helper()
	got, err := DecodeFrame(block)
	if err != nil {
		tb.Fatalf("valid frame rejected: %v", err)
	}
	if got.Index != fr.Index || got.Raster == nil || got.Raster.W != fr.Raster.W || got.Raster.H != fr.Raster.H {
		tb.Fatalf("decoded %+v, want index %d %dx%d", got, fr.Index, fr.Raster.W, fr.Raster.H)
	}
	for i, v := range fr.Raster.Pix {
		if want := float32(uint8(v*255+0.5)) / 255; got.Raster.Pix[i] != want {
			tb.Fatalf("pixel %d decoded %v, want %v", i, got.Raster.Pix[i], want)
		}
	}
	if again := mustEncode(tb, got); !bytes.Equal(again, block) {
		tb.Fatal("re-encoding the decoded frame changed the block")
	}
}

func TestPooledStateMatchesFreshState(t *testing.T) {
	// The same frame encoded first on a cold pool, then after frames of
	// other sizes have been through the pooled writer, yields identical
	// bytes: Reset leaves nothing of the previous frame behind.
	frames := []*FrameRecord{testFrame(1, 160, 160), testFrame(2, 96, 96), testFrame(3, 320, 200), testFrame(4, 1, 1)}
	first := make([][]byte, len(frames))
	for i, fr := range frames {
		first[i] = mustEncode(t, fr)
	}
	for round := 0; round < 3; round++ {
		for i := len(frames) - 1; i >= 0; i-- {
			if again := mustEncode(t, frames[i]); !bytes.Equal(again, first[i]) {
				t.Fatalf("round %d: frame %d encodes differently through reused state", round, i)
			}
			assertRoundTrip(t, first[i], frames[i])
		}
	}
}

// FuzzDecodeFrame drives DecodeFrame over mutated frame blocks. The pooled
// inflater must never carry a torn stream into the next frame: whatever the
// fuzzer's block did, a valid frame decoded right after it — on this
// goroutine, so most likely from the same pooled state — round-trips exactly.
func FuzzDecodeFrame(f *testing.F) {
	valid := testFrame(7, 48, 40)
	validBlock := mustEncode(f, valid)
	f.Add(validBlock)
	f.Add(mustEncode(f, &FrameRecord{Index: 3}))
	f.Add(validBlock[:len(validBlock)/2])                         // truncated DEFLATE stream
	f.Add(append(append([]byte(nil), validBlock...), 0x00, 0x01)) // trailing bytes
	flipped := append([]byte(nil), validBlock...)
	flipped[len(flipped)-9] ^= 0x40 // corrupt the stream's tail
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, block []byte) {
		if fr, err := DecodeFrame(block); err == nil && fr.Raster != nil {
			if len(fr.Raster.Pix) != fr.Raster.W*fr.Raster.H {
				t.Fatalf("accepted raster %dx%d with %d samples", fr.Raster.W, fr.Raster.H, len(fr.Raster.Pix))
			}
		}
		assertRoundTrip(t, validBlock, valid)
	})
}

// Steady-state allocation pins at the streaming resolution. What may remain
// is O(output): the frame block on the way out; the record, the image and
// its samples on the way in. A fresh compressor is ~650 KB in a handful of allocations, the
// quantised-sample scratch another 25 KB each way — either would show.
func TestEncodeFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fr := testFrame(1, 160, 160)
	block := mustEncode(t, fr) // warm the pool
	allocs := testing.AllocsPerRun(50, func() { mustEncode(t, fr) })
	if allocs > 2 {
		t.Fatalf("EncodeFrame allocates %.0f objects per frame in steady state, want the block only", allocs)
	}
	if perFrame := bytesPerRun(50, func() { mustEncode(t, fr) }); perFrame > uint64(2*len(block)+1024) {
		t.Fatalf("EncodeFrame allocates %d bytes per frame for a %d-byte block", perFrame, len(block))
	}
}

func TestDecodeFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fr := testFrame(1, 160, 160)
	block := mustEncode(t, fr)
	assertRoundTrip(t, block, fr) // warm the pool
	decode := func() {
		if _, err := DecodeFrame(block); err != nil {
			t.Fatal(err)
		}
	}
	// No object-count pin here: compress/flate builds fresh Huffman link
	// tables for every dynamic block it inflates, a few small slices per
	// block that Reset cannot keep. Bytes tell the story: a fresh inflater
	// is ~40 KB of window and tables, the sample scratch 25 KB.
	samples := uint64(160 * 160 * 4)
	if perFrame := bytesPerRun(50, decode); perFrame > samples+8<<10 {
		t.Fatalf("DecodeFrame allocates %d bytes per frame for %d bytes of samples", perFrame, samples)
	}
}

var sinkBlock []byte
var sinkFrame *FrameRecord

func BenchmarkEncodeFrame(b *testing.B) {
	fr := testFrame(1, 160, 160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBlock = mustEncode(b, fr)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	block := mustEncode(b, testFrame(1, 160, 160))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := DecodeFrame(block)
		if err != nil {
			b.Fatal(err)
		}
		sinkFrame = fr
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of fn allocates.
func bytesPerRun(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestDecodeFrameDoesNotPreallocateHostileRaster(t *testing.T) {
	// Twenty bytes claiming a 16384x16384 raster must fail before the
	// gigabyte of samples is allocated: no DEFLATE stream that short can
	// inflate to it.
	block := binary.AppendUvarint(nil, 0)         // index
	block = binary.AppendUvarint(block, 0)        // no objects
	block = append(block, 1)                      // has raster
	block = binary.AppendUvarint(block, 1<<14)    // width
	block = binary.AppendUvarint(block, 1<<14)    // height
	block = binary.AppendUvarint(block, 8)        // compressed length
	block = append(block, 0, 0, 0, 0, 0, 0, 0, 0) // "stream"
	perCall := bytesPerRun(1, func() {
		if _, err := DecodeFrame(block); err == nil {
			t.Fatal("hostile raster header accepted")
		}
	})
	if perCall > 1<<20 {
		t.Fatalf("rejecting a %d-byte block allocated %d bytes", len(block), perCall)
	}
}
