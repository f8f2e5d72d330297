package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The resample rows' dispatched kernels against their Go bodies, bit for
// bit: every width 0–70 (every len%8 and len%4 tail), each at buffer offsets
// 0–7 so the SIMD bodies read and write unaligned rows, with noiseSpecials
// (signed zeros, NaN payloads, infinities, subnormals) among the samples.
// Where the CPU has no AVX2 the dispatch is the Go body and each test holds
// it to itself.

const simdMaxWidth = 70

// simdSame reports whether a SIMD body's sample (its bits and whether it is
// NaN) equals its Go body's. When both operands of an add are NaN, x86
// returns the first source's payload, and which operand is first in a Go
// body is the compiler's register choice: the race-instrumented build makes
// it differently in boxColsGo and integrateRowsGo. So the payloads are
// pinned against the normal build, and under the race detector a NaN
// matches any NaN.
func simdSame(got, want uint64, gotNaN, wantNaN bool) bool {
	return got == want || raceEnabled && gotNaN && wantNaN
}

// requireSameBody is requireSameBits under simdSame.
func requireSameBody(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, Go body %d", ctx, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; !simdSame(uint64(math.Float32bits(g)), uint64(math.Float32bits(w)), g != g, w != w) {
			t.Fatalf("%s: sample %d = %x (%v), Go body %x (%v)", ctx, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// simdRow is a row of n samples starting off elements into a fresh buffer,
// roughly one in three a special value.
func simdRow(rng *rand.Rand, n, off int) []float32 {
	return noiseRowInput(rng, off+n, 3)[off:]
}

func TestBlendRowMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var cols bilinearTaps
	for n := 0; n <= simdMaxWidth; n++ {
		for off := 0; off < 8; off++ {
			sw := 1 + rng.Intn(2*simdMaxWidth) // both shrinking and growing columns
			cols.build(sw, n)
			row := simdRow(rng, sw, off)
			want := make([]float32, n)
			blendRowGo(want, row, &cols, 0)
			got := make([]float32, off+n)[off:]
			blendRow(got, row, &cols)
			requireSameBody(t, fmt.Sprintf("blendRow %d of %d at +%d", n, sw, off), got, want)
		}
	}
}

func TestLerpRowMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n <= simdMaxWidth; n++ {
		for off := 0; off < 8; off++ {
			tops, bots := simdRow(rng, n, off), simdRow(rng, n, 7-off)
			fy := []float32{0, 0.5, rng.Float32(), math.Nextafter32(1, 0)}[off%4]
			want := make([]float32, n)
			lerpRowGo(want, tops, bots, fy, 0)
			got := make([]float32, off+n)[off:]
			lerpRow(got, tops, bots, fy)
			requireSameBody(t, fmt.Sprintf("lerpRow %d at +%d fy %v", n, off, fy), got, want)
		}
	}
}

// TestBoxColsMatchesGoBody runs one to five taps (two is the Go body's
// unrolled path) over rows of integrals at unaligned offsets, with special
// values among the integrals and among the inverse window widths.
func TestBoxColsMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 0; n <= simdMaxWidth; n++ {
		for off := 0; off < 8; off++ {
			ntaps := 1 + (n+off)%5
			ints := make([]float64, off+ntaps*(n+3))
			for i, v := range simdRow(rng, len(ints), 0) {
				ints[i] = float64(v) * (1 + rng.Float64())
			}
			taps := make([]boxTap, ntaps)
			for i := range taps {
				taps[i] = boxTap{off: off + i*(n+3), wy: []float64{1, rng.Float64()}[rng.Intn(2)]}
			}
			inv := make([]float64, off+n)[off:]
			for i := range inv {
				inv[i] = simdInv(rng)
			}
			invY := simdInv(rng)
			want := make([]float32, n)
			boxColsGo(want, ints, taps, inv, invY, 0)
			got := make([]float32, off+n)[off:]
			boxCols(got, ints, taps, inv, invY)
			requireSameBody(t, fmt.Sprintf("boxCols %d at +%d, %d taps", n, off, ntaps), got, want)
		}
	}
}

// simdInv is an inverse window width, 1/21 to 1, or one time in eight a
// special value.
func simdInv(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return float64(noiseSpecials[rng.Intn(len(noiseSpecials))])
	}
	return 1 / (1 + 20*rng.Float64())
}

// TestIntegrateRowsMatchesGoBody integrates bands of one to nine rows of a
// rectangle at column and row offsets 0–7 inside a wider raster (rows read
// at a stride other than their width) over box window edges of every width
// 1–70 and shrink ratios 1–5, against the Go body two rows at a time.
func TestIntegrateRowsMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for sw := 1; sw <= simdMaxWidth; sw++ {
		for off := 0; off < 8; off++ {
			tab := resampleTables{sw: sw, sh: 9, w: max(1, int(float64(sw)/(1+4*rng.Float64()))), h: 9, srcRows: make([]rowSpan, 9)}
			tab.buildBox()
			nrows := 1 + rng.Intn(9)
			stride := off + sw + rng.Intn(9)
			src := &Image{W: stride, H: off + nrows, Pix: simdRow(rng, stride*(off+nrows), 0)}
			r := RectWH(off, off, sw, nrows)
			w := len(tab.edges) - 1

			want := make([]float64, nrows*w)
			for sy := 0; sy < nrows; sy++ {
				row := regionRow(src, r, sy)
				integrateRowsGo(want[sy*w:][:w], make([]float64, w), row, row, tab.edges)
			}
			got := make([]float64, nrows*w)
			integrateRows(got, src, r, 0, nrows, tab.edges)
			for i := range want {
				if g, v := got[i], want[i]; !simdSame(math.Float64bits(g), math.Float64bits(v), g != g, v != v) {
					t.Fatalf("integrateRows %d rows of %d -> %d at +%d: sample %d = %x (%v), Go body %x (%v)",
						nrows, sw, w, off, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
			}
		}
	}
}

// BenchmarkRowBodies is one patch-width row (114 columns, a 60-pixel
// region at 608 from a 320-pixel corpus) through each resample row kernel's
// Go body and its dispatched body; simd is skipped where the Go body is the
// only one.
func BenchmarkRowBodies(b *testing.B) {
	const n = 114
	rng := rand.New(rand.NewSource(1))
	row, tops, bots, out := noiseRowInput(rng, 60, 0), noiseRowInput(rng, n, 0), noiseRowInput(rng, n, 0), make([]float32, n)
	var cols bilinearTaps
	cols.build(60, n)
	tab := resampleTables{sw: 120, sh: 4, w: n, h: 4, srcRows: make([]rowSpan, 4)}
	tab.buildBox()
	src := &Image{W: 120, H: 4, Pix: noiseRowInput(rng, 480, 0)}
	ints := make([]float64, 4*n)
	taps := []boxTap{{0, 0.25}, {n, 0.75}}
	for _, k := range []struct {
		name     string
		goBody   func()
		dispatch func()
	}{
		{"blend", func() { blendRowGo(out, row, &cols, 0) }, func() { blendRow(out, row, &cols) }},
		{"lerp", func() { lerpRowGo(out, tops, bots, 0.3, 0) }, func() { lerpRow(out, tops, bots, 0.3) }},
		{"boxcols", func() { boxColsGo(out, ints, taps, tab.inv, 0.5, 0) }, func() { boxCols(out, ints, taps, tab.inv, 0.5) }},
		{"integrate4", func() {
			for sy := 0; sy < 4; sy += 2 {
				integrateRowsGo(ints[sy*n:][:n], ints[(sy+1)*n:][:n], src.Pix[sy*120:][:120], src.Pix[(sy+1)*120:][:120], tab.edges)
			}
		}, func() { integrateRows(ints, src, RectWH(0, 0, 120, 4), 0, 4, tab.edges) }},
	} {
		b.Run(k.name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.goBody()
			}
		})
		b.Run(k.name+"/simd", func(b *testing.B) {
			if !simd {
				b.Skip("the row kernels run their Go bodies on this CPU")
			}
			for i := 0; i < b.N; i++ {
				k.dispatch()
			}
		})
	}
}
