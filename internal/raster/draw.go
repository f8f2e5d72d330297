package raster

import "math"

// This file provides the primitive renderers used by the scene simulator.
// Objects are drawn as filled shapes with soft (anti-aliased) edges so that
// downsampling produces realistic partial-coverage boundary pixels instead
// of hard binary masks.

// FillRect paints a solid axis-aligned rectangle with intensity v.
func (m *Image) FillRect(r Rect, v float32) {
	r = r.Intersect(RectWH(0, 0, m.W, m.H))
	v = clamp01(v)
	for y := r.MinY; y < r.MaxY; y++ {
		row := m.Pix[y*m.W+r.MinX : y*m.W+r.MaxX]
		for i := range row {
			row[i] = v
		}
	}
}

// FillEllipse paints a filled ellipse inscribed in r with intensity v and a
// one-pixel soft edge.
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
	for y := clip.MinY; y < clip.MaxY; y++ {
		for x := clip.MinX; x < clip.MaxX; x++ {
			dx := (float64(x) + 0.5 - cx) / rx
			dy := (float64(y) + 0.5 - cy) / ry
			d := math.Sqrt(dx*dx + dy*dy)
			switch {
			case d <= 0.92:
				m.Set(x, y, v)
			case d <= 1.0:
				// Soft edge: linear falloff blended over background.
				t := float32((1.0 - d) / 0.08)
				old := m.At(x, y)
				m.Set(x, y, old+(v-old)*t)
			}
		}
	}
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
	scale := sigma / 0.5
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*m.W : (y+1)*m.W]
		rowTerm := pixelHashRow(seed, y)
		for x := range row {
			row[x] = clamp01(row[x] + noiseUnit(pixelHashAt(rowTerm, x))*scale)
		}
	}
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
	scale := sigma / 0.5
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*m.W : (y+1)*m.W]
		bgRow := bg.Pix[y*m.W : (y+1)*m.W]
		out := dst[y*m.W : (y+1)*m.W]
		rowTerm := pixelHashRow(seed, y)
		for x, v := range row {
			out[x] = clamp01(v+noiseUnit(pixelHashAt(rowTerm, x))*scale) - bgRow[x]
		}
	}
}

// noiseUnit maps a pixel hash to an Irwin–Hall(3) sample with sd 0.5: the
// sum of three uniforms in [-0.5, 0.5) drawn from the hash's 21-bit fields.
// Each uniform is k·2^-21 - 0.5 and every partial sum is a multiple of 2^-21
// below 2^2, so all of it is exact in float32; summing the fields as
// integers and converting once is therefore bit-identical to converting
// each field and adding in float (noiseUnitNaive, the test oracle) at a
// third of the int-to-float conversions.
func noiseUnit(h uint64) float32 {
	const invU = float32(1) / float32(1<<21)
	k := int32(h&0x1fffff) + int32((h>>21)&0x1fffff) + int32((h>>42)&0x1fffff)
	return float32(k-3*(1<<20)) * invU
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
