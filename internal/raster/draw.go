package raster

import "math"

// This file provides the primitive renderers used by the scene simulator.
// Objects are drawn as filled shapes with soft (anti-aliased) edges so that
// downsampling produces realistic partial-coverage boundary pixels instead
// of hard binary masks.

// FillRect paints a solid axis-aligned rectangle with intensity v: its
// first clipped row is filled, then copied down.
func (m *Image) FillRect(r Rect, v float32) {
	r = r.Intersect(RectWH(0, 0, m.W, m.H))
	if r.Empty() {
		return
	}
	first := m.Pix[r.MinY*m.W+r.MinX : r.MinY*m.W+r.MaxX]
	fillRow(first, clamp01(v))
	for y := r.MinY + 1; y < r.MaxY; y++ {
		copy(m.Pix[y*m.W+r.MinX:y*m.W+r.MaxX], first)
	}
}

// fillRow sets every sample of row to v.
func fillRow(row []float32, v float32) {
	for i := range row {
		row[i] = v
	}
}

// FillEllipse paints a filled ellipse inscribed in r with intensity v and a
// one-pixel soft edge. dx² is tabled per column and dy² taken per row, each
// the expression the per-pixel form (fillEllipseNaive, the test oracle)
// evaluates per pixel, so every sample is bit-identical to it. The interior,
// d <= 0.92, is one span of each row: d = sqrt(dx² + dy²) does not decrease
// away from the centre column, since |x + 0.5 - cx| is exact and the
// division, square, add and sqrt are correctly rounded, so monotone. Each
// row walks in from both ends with the per-pixel expression, blending the
// soft edge, until it meets the span, and fills the span.
func (m *Image) FillEllipse(r Rect, v float32) {
	if r.Empty() {
		return
	}
	cx, cy := r.Center()
	rx := float64(r.W()) / 2
	ry := float64(r.H()) / 2
	if rx <= 0 || ry <= 0 {
		return
	}
	clip := r.Intersect(RectWH(0, 0, m.W, m.H))
	dx2Slab, dx2 := getF64(clip.W())
	defer putF64(dx2Slab)
	for i := range dx2 {
		dx := (float64(clip.MinX+i) + 0.5 - cx) / rx
		dx2[i] = dx * dx
	}
	fill := clamp01(v)
	for y := clip.MinY; y < clip.MaxY; y++ {
		dy := (float64(y) + 0.5 - cy) / ry
		dy2 := dy * dy
		row := m.Pix[y*m.W+clip.MinX : y*m.W+clip.MaxX]
		lo, hi := 0, len(row)
		for lo < hi && !ellipseEdge(row, lo, math.Sqrt(dx2[lo]+dy2), v) {
			lo++
		}
		for hi > lo && !ellipseEdge(row, hi-1, math.Sqrt(dx2[hi-1]+dy2), v) {
			hi--
		}
		fillRow(row[lo:hi], fill)
	}
}

// ellipseEdge reports whether a pixel at distance d lies in the ellipse's
// interior (d <= 0.92) and otherwise paints it as the soft edge: a linear
// falloff blended over the background for d <= 1, nothing beyond.
func ellipseEdge(row []float32, i int, d float64, v float32) bool {
	switch {
	case d <= 0.92:
		return true
	case d <= 1.0:
		t := float32((1.0 - d) / 0.08)
		old := row[i]
		row[i] = clamp01(old + (v-old)*t)
	}
	return false
}

// GradientV paints a vertical linear gradient from top intensity to bottom
// intensity across the whole image. Scene backgrounds use this to model
// road-to-sky luminance ramps.
func (m *Image) GradientV(top, bottom float32) {
	for y := 0; y < m.H; y++ {
		t := float32(y) / float32(m.H-1+1)
		v := clamp01(top + (bottom-top)*t)
		row := y * m.W
		for x := 0; x < m.W; x++ {
			m.Pix[row+x] = v
		}
	}
}

// Texture overlays a deterministic pseudo-random texture with amplitude
// amp, keyed by seed. The texture is a fixed function of pixel coordinates
// so the same background renders identically every frame — exactly like a
// static camera looking at static clutter.
func (m *Image) Texture(seed uint64, amp float32) {
	for y := 0; y < m.H; y++ {
		row := y * m.W
		for x := 0; x < m.W; x++ {
			h := pixelHash(seed, x, y)
			// Map hash to [-1, 1).
			u := float32(int64(h>>11))/float32(1<<52) - 1
			m.Pix[row+x] = clamp01(m.Pix[row+x] + u*amp)
		}
	}
}

// AddNoise adds deterministic per-pixel noise with standard deviation
// sigma, keyed by seed. Approximates sensor noise; night scenes use larger
// sigma. Uses a sum of three uniforms (Irwin–Hall) as a cheap, bounded
// near-Gaussian.
func (m *Image) AddNoise(seed uint64, sigma float32) {
	if sigma <= 0 {
		return
	}
	// The kernel subtracts a background row, and x - (+0) is x bit for
	// bit: one row of +0 serves every row (stride 0).
	zero := GetScratch(m.W, 1)
	defer PutScratch(zero)
	clear(zero.Pix)
	noisePlane(m.Pix, m.Pix, zero.Pix, m.W, 0, seed, noiseStep*(sigma/0.5))
}

// NoisyDiffInto writes clamp01(m + noise) - bg into dst (length W*H) without
// modifying m: Image.AddNoise followed by an elementwise background
// subtraction, in one pass with the same per-pixel arithmetic. The detector's
// patch path consumes only the signed difference, so the noised image itself
// is never materialised. As with AddNoise, sigma <= 0 adds (and clamps)
// nothing.
func (m *Image) NoisyDiffInto(dst []float32, bg *Image, seed uint64, sigma float32) {
	if m.W != bg.W || m.H != bg.H || len(dst) != len(m.Pix) {
		panic("raster: NoisyDiffInto size mismatch")
	}
	if sigma <= 0 {
		for i, v := range m.Pix {
			dst[i] = v - bg.Pix[i]
		}
		return
	}
	noisePlane(dst, m.Pix, bg.Pix, m.W, m.W, seed, noiseStep*(sigma/0.5))
}

// noisePlane is the one noise kernel: noiseRowGo over every row y of a
// plane of w columns, out and in holding len(out)/w rows of w each (out may
// be in), bg's row y at y*bgStride, and rowTerm pixelHashRow(seed, y). With
// simd512 the AVX-512 body computes the whole plane in one call, its last
// w%16 columns of each row included, and with simd the AVX2 body does, w%8;
// otherwise the Go body runs row by row. They are bit-identical: the hash
// is integer arithmetic, and the float steps are the Go body's multiply,
// add, clamp and subtract in the same order and operand order, with no FMA.
func noisePlane(out, in, bg []float32, w, bgStride int, seed uint64, step float32) {
	if len(out) == 0 {
		return
	}
	if simd512 {
		noisePlaneAVX512(out, in, bg, w, bgStride, seed, step)
		return
	}
	if simd {
		noisePlaneAVX2(out, in, bg, w, bgStride, seed, step)
		return
	}
	for y := 0; y*w < len(out); y++ {
		lo, b := y*w, y*bgStride
		noiseRowGo(out[lo:lo+w], in[lo:lo+w], bg[b:b+w], pixelHashRow(seed, y), step)
	}
}

// noiseRowGo is the portable body of the noise kernel noisePlane, and the
// oracle its SIMD body is held to: out[x] = clamp01(in[x] + noise) - bg[x]
// for every column x of one row (out may be in), noise being the pixel's
// Irwin–Hall(3) sum noiseSum times step = 2^-21·(sigma/0.5). The historical
// form (the oracle noiseUnitNaive) converted and centred each 21-bit
// uniform, added them in float32 and scaled the unit; every partial sum is
// a multiple of 2^-21 below 2^2, exact in float32, and multiplying by 2^-21
// is exact, so both forms round the same exact product once (for sigma >=
// 2^-106, where step is a normal float32). Kept out of line with rows cut
// to one length, its loop holds only the hash state and three row
// pointers, with no bounds checks.
//
//go:noinline
func noiseRowGo(out, in, bg []float32, rowTerm uint64, step float32) {
	in, bg = in[:len(out)], bg[:len(out)]
	for x := range out {
		out[x] = clamp01(in[x]+float32(noiseSum(pixelHashAt(rowTerm, x)))*step) - bg[x]
	}
}

// noiseStep is the unit of noiseSum: one step of a 21-bit uniform.
const noiseStep = float32(1) / float32(1<<21)

// noiseSum is the Irwin–Hall(3) sample of a pixel hash in units of
// noiseStep: its three 21-bit fields summed and centred.
func noiseSum(h uint64) int32 {
	return int32(h&0x1fffff) + int32((h>>21)&0x1fffff) + int32((h>>42)&0x1fffff) - 3*(1<<20)
}

// pixelHash mixes a seed with pixel coordinates into 64 well-distributed
// bits. It is the raster-side analogue of stats.Stream.Child.
func pixelHash(seed uint64, x, y int) uint64 {
	return pixelHashAt(pixelHashRow(seed, y), x)
}

// pixelHashRow is the part of pixelHash that is constant along a row, so row
// loops fold it once; pixelHashAt finishes the hash for one column.
func pixelHashRow(seed uint64, y int) uint64 { return seed ^ uint64(uint32(y)) }

func pixelHashAt(rowTerm uint64, x int) uint64 {
	z := rowTerm ^ (uint64(uint32(x)) << 32)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
