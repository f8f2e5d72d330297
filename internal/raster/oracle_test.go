package raster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Test-only per-pixel references for the tabled/hoisted float kernels. The
// fast kernels promise the same bits, so every comparison below is ==.

// bilinearNaiveInto is the historical per-pixel bilinear resize: the float64
// column coordinate, its truncation and its clamps are re-derived for every
// pixel of every row.
func bilinearNaiveInto(dst, src *Image) {
	w, h := dst.W, dst.H
	sw, sh := src.W, src.H
	for dy := 0; dy < h; dy++ {
		sy := (float64(dy)+0.5)*float64(sh)/float64(h) - 0.5
		y0 := int(sy)
		fy := float32(sy - float64(y0))
		if sy <= 0 {
			y0, fy = 0, 0
		} else if y0 >= sh-1 {
			y0, fy = sh-1, 0
		}
		y1 := y0 + 1
		if y1 > sh-1 {
			y1 = sh - 1
		}
		row0 := src.Pix[y0*sw : (y0+1)*sw]
		row1 := src.Pix[y1*sw : (y1+1)*sw]
		out := dst.Pix[dy*w : (dy+1)*w]
		for dx := range out {
			sx := (float64(dx)+0.5)*float64(sw)/float64(w) - 0.5
			x0 := int(sx)
			fx := float32(sx - float64(x0))
			if sx <= 0 {
				x0, fx = 0, 0
			} else if x0 >= sw-1 {
				x0, fx = sw-1, 0
			}
			x1 := x0 + 1
			if x1 > sw-1 {
				x1 = sw - 1
			}
			v00 := row0[x0]
			v10 := row0[x1]
			v01 := row1[x0]
			v11 := row1[x1]
			top := v00 + (v10-v00)*fx
			bot := v01 + (v11-v01)*fx
			out[dx] = top + (bot-top)*fy
		}
	}
}

// bilinearInto is the full-range bilinear kernel, the call DownsampleInto
// makes for a growing axis; the oracle comparisons and golden digests below
// take it by this name.
func bilinearInto(dst, src *Image) {
	bilinearTablesInto(dst, src, bilinearTables(dst, src))
}

// bilinearTables builds fresh bilinear tables for src's shape resampled to
// dst's.
func bilinearTables(dst, src *Image) *resampleTables {
	t := &resampleTables{sw: src.W, sh: src.H, w: dst.W, h: dst.H, srcRows: make([]rowSpan, dst.H)}
	t.buildBilinear()
	return t
}

// bilinearTablesInto is bilinearInto over tables built beforehand.
func bilinearTablesInto(dst, src *Image, t *resampleTables) {
	bilinearRowsInto(dst, src, RectWH(0, 0, src.W, src.H), 0, dst.H, t)
}

// axisWindow is, for one destination column, the continuous source window
// [lo, hi) of the prefix-sum box kernel: the window integral is
// C(hi) - C(lo) with C(t) = P[i] + f*pix[i], i = min(int(t), n-1), f = t - i,
// where P is the row's prefix sum. inv is 1/(hi-lo).
type axisWindow struct {
	i0, i1 int32
	f0, f1 float64
	inv    float64
}

// makeAxisWindows fills win (length dstN) for a source axis of length srcN.
func makeAxisWindows(win []axisWindow, srcN, dstN int) {
	ratio := float64(srcN) / float64(dstN)
	for d := 0; d < dstN; d++ {
		lo := float64(d) * ratio
		hi := float64(d+1) * ratio
		i0 := int(lo)
		if i0 > srcN-1 {
			i0 = srcN - 1
		}
		i1 := int(hi)
		if i1 > srcN-1 {
			i1 = srcN - 1
		}
		win[d] = axisWindow{
			i0: int32(i0), i1: int32(i1),
			f0: lo - float64(i0), f1: hi - float64(i1),
			inv: 1 / (hi - lo),
		}
	}
}

// downsamplePrefixInto is the prefix-sum box kernel the tabled one replaced,
// kept as its bit-exact oracle: both edges of every column window evaluated
// per source row from a stored prefix-sum array, and each destination row
// reduced into an accumulator row.
func downsamplePrefixInto(dst, src *Image) {
	w, h := dst.W, dst.H
	sw, sh := src.W, src.H
	xwin := make([]axisWindow, w)
	makeAxisWindows(xwin, sw, w)
	rowInt := make([]float64, sh*w)
	prefix := make([]float64, sw+1)
	for sy := 0; sy < sh; sy++ {
		row := src.Pix[sy*sw : (sy+1)*sw]
		var sum float64
		for x, v := range row {
			sum += float64(v)
			prefix[x+1] = sum
		}
		out := rowInt[sy*w : (sy+1)*w]
		for dx := range out {
			xw := &xwin[dx]
			c0 := prefix[xw.i0] + xw.f0*float64(row[xw.i0])
			c1 := prefix[xw.i1] + xw.f1*float64(row[xw.i1])
			out[dx] = c1 - c0
		}
	}
	acc := make([]float64, w)
	yRatio := float64(sh) / float64(h)
	for dy := 0; dy < h; dy++ {
		y0, y1, iy0, iy1 := boxRows(dy, yRatio, sh)
		for i := range acc {
			acc[i] = 0
		}
		for sy := iy0; sy <= iy1; sy++ {
			wy := boxWeight(sy, y0, y1, iy0, iy1)
			if wy <= 0 {
				continue
			}
			ri := rowInt[sy*w : (sy+1)*w]
			for dx := range acc {
				acc[dx] += wy * ri[dx]
			}
		}
		invY := 1 / (y1 - y0)
		out := dst.Pix[dy*w : (dy+1)*w]
		for dx := range out {
			out[dx] = float32(acc[dx] * xwin[dx].inv * invY)
		}
	}
}

// resampleReference is the oracle of a resample of src to dst's size: the
// prefix-sum kernel when both axes shrink, the per-pixel bilinear form when
// either grows, a copy at equal size.
func resampleReference(dst, src *Image) {
	switch {
	case dst.W == src.W && dst.H == src.H:
		copy(dst.Pix, src.Pix)
	case dst.W > src.W || dst.H > src.H:
		bilinearNaiveInto(dst, src)
	default:
		downsamplePrefixInto(dst, src)
	}
}

// fillEllipseNaive is the historical FillEllipse: both normalised offsets
// divided out for every pixel.
func (m *Image) fillEllipseNaive(r Rect, v float32) {
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
				t := float32((1.0 - d) / 0.08)
				old := m.At(x, y)
				m.Set(x, y, old+(v-old)*t)
			}
		}
	}
}

// fillRectNaive is the historical FillRect: every clipped row filled by a
// store loop of its own.
func (m *Image) fillRectNaive(r Rect, v float32) {
	r = r.Intersect(RectWH(0, 0, m.W, m.H))
	v = clamp01(v)
	for y := r.MinY; y < r.MaxY; y++ {
		row := m.Pix[y*m.W+r.MinX : y*m.W+r.MaxX]
		for i := range row {
			row[i] = v
		}
	}
}

// noiseUnit is the Irwin–Hall(3) sample with sd 0.5 that noiseRowGo scales:
// noiseSum converted once.
func noiseUnit(h uint64) float32 { return float32(noiseSum(h)) * noiseStep }

// noiseUnitNaive is the historical Irwin–Hall evaluation: each 21-bit field
// converted and centred on its own, then added in float32.
func noiseUnitNaive(h uint64) float32 {
	const invU = float32(1) / float32(1<<21)
	u1 := float32(h&0x1fffff)*invU - 0.5
	u2 := float32((h>>21)&0x1fffff)*invU - 0.5
	u3 := float32((h>>42)&0x1fffff)*invU - 0.5
	return u1 + u2 + u3
}

// addNoiseNaive is the historical AddNoise: the full pixelHash and three
// conversions per pixel.
func (m *Image) addNoiseNaive(seed uint64, sigma float32) {
	if sigma <= 0 {
		return
	}
	scale := sigma / 0.5
	for y := 0; y < m.H; y++ {
		row := m.Pix[y*m.W : (y+1)*m.W]
		for x := range row {
			row[x] = clamp01(row[x] + noiseUnitNaive(pixelHashNaive(seed, x, y))*scale)
		}
	}
}

func pixelHashNaive(seed uint64, x, y int) uint64 {
	z := seed ^ (uint64(uint32(x)) << 32) ^ uint64(uint32(y))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func requireSameBits(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: sample %d = %x (%v), reference %x (%v)", ctx, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestBilinearMatchesPerPixelReference compares the tabled kernel with the
// per-pixel reference bit for bit over degenerate (1xN, Nx1), non-square and
// mixed up/down ratios — DownsampleInto routes here whenever either axis
// grows — including one image of many row blocks.
func TestBilinearMatchesPerPixelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type dims struct{ sw, sh, dw, dh int }
	cases := []dims{
		{1, 1, 1, 1}, {1, 1, 9, 7}, {1, 13, 5, 40}, {13, 1, 40, 5}, {1, 13, 1, 27}, {13, 1, 27, 1},
		{2, 2, 3, 3}, {7, 5, 8, 5}, {7, 5, 7, 6}, {40, 9, 13, 33}, {9, 40, 33, 13},
		{33, 47, 63, 89}, {70, 45, 133, 86}, {320, 320, 608, 608},
	}
	for i := 0; i < 10; i++ {
		cases = append(cases, dims{1 + rng.Intn(90), 1 + rng.Intn(90), 1 + rng.Intn(200), 1 + rng.Intn(200)})
	}
	for _, c := range cases {
		src := randomImage(rng, c.sw, c.sh)
		want := New(c.dw, c.dh)
		bilinearNaiveInto(want, src)
		got := GetScratch(c.dw, c.dh)
		bilinearInto(got, src)
		requireSameBits(t, "bilinear", got.Pix, want.Pix)
		PutScratch(got)
	}
}

// TestNoiseUnitMatchesNaive checks the single-conversion Irwin–Hall sample
// against the three-conversion form on the field extremes (where a rounding
// step would first show) and a million random hashes.
func TestNoiseUnitMatchesNaive(t *testing.T) {
	const f = 0x1fffff
	edges := []uint64{0, 1, f - 1, f, 1 << 20, 1<<20 - 1, 1<<20 + 1}
	check := func(h uint64) {
		if got, want := noiseUnit(h), noiseUnitNaive(h); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("hash %#x: noiseUnit %x (%v), reference %x (%v)", h,
				math.Float32bits(got), got, math.Float32bits(want), want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				check(a | b<<21 | c<<42 | 1<<63)
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64())
	}
}

// TestAddNoiseMatchesReference pins AddNoise (row-hoisted hash, one
// conversion) and NoisyDiffInto (the same fused with a background
// subtraction) to the historical per-pixel kernel, including the sigma <= 0
// no-op that must not clamp.
func TestAddNoiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type dims struct{ w, h int }
	for _, c := range []dims{{1, 1}, {1, 17}, {17, 1}, {3, 3}, {64, 48}, {113, 37}} {
		for _, sigma := range []float32{0, -1, 0.004, 0.05, 0.6} {
			src := randomImage(rng, c.w, c.h)
			bg := randomImage(rng, c.w, c.h)
			// Out-of-range pixels survive a sigma <= 0 call unclamped.
			src.Pix[0], src.Pix[len(src.Pix)-1] = 1.5, -0.25
			seed := rng.Uint64()

			want := src.Clone()
			want.addNoiseNaive(seed, sigma)
			got := src.Clone()
			got.AddNoise(seed, sigma)
			requireSameBits(t, "AddNoise", got.Pix, want.Pix)

			diff := make([]float32, len(src.Pix))
			before := src.Clone()
			src.NoisyDiffInto(diff, bg, seed, sigma)
			requireSameBits(t, "NoisyDiffInto source", src.Pix, before.Pix)
			for i := range want.Pix {
				want.Pix[i] -= bg.Pix[i]
			}
			requireSameBits(t, "NoisyDiffInto", diff, want.Pix)
		}
	}
}

// TestFillEllipseMatchesNaive compares the tabled ellipse with the per-pixel
// form bit for bit over random rectangles inside, across and wholly outside
// the image, degenerate ones (empty, one pixel wide or high, inverted) and
// out-of-range intensities, drawn over a textured image so the soft edge
// blends real samples.
func TestFillEllipseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rects := []Rect{
		RectWH(0, 0, 1, 1), RectWH(3, 3, 1, 9), RectWH(3, 3, 9, 1), RectWH(5, 5, 0, 4),
		{MinX: 9, MinY: 9, MaxX: 2, MaxY: 2}, RectWH(-30, -20, 15, 10), RectWH(-5, -7, 80, 70),
		RectWH(60, 40, 30, 30), RectWH(2, 3, 2, 3),
		// Wider or taller than the image.
		RectWH(-40, 10, 160, 30), RectWH(5, -30, 20, 130), RectWH(-50, -50, 180, 160),
		// Centre outside the clip: left, above, below right.
		RectWH(-50, 10, 80, 30), RectWH(10, -40, 30, 60), RectWH(50, 30, 40, 40),
		// Rows without an interior span: the clip holds only the soft
		// edge, or they are the top and bottom rows of a tall ellipse.
		RectWH(-38, 10, 40, 30), RectWH(70, 5, 40, 30), RectWH(20, 5, 4, 40),
	}
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(100)-20, rng.Intn(80)-20
		rects = append(rects, RectWH(x, y, rng.Intn(60), rng.Intn(50)))
	}
	for i, r := range rects {
		src := randomImage(rng, 64+rng.Intn(9), 48+rng.Intn(9))
		v := []float32{0.7, 0, 1, 1.4, -0.3}[i%5]
		want, got := src.Clone(), src.Clone()
		want.fillEllipseNaive(r, v)
		got.FillEllipse(r, v)
		requireSameBits(t, fmt.Sprintf("FillEllipse %+v v=%v", r, v), got.Pix, want.Pix)
	}
}

// TestFillRectMatchesNaive compares FillRect's row-copy fill with the
// per-row store loop over clipped, empty, inverted, one-row, one-column and
// whole-image rectangles, and random ones, at in- and out-of-range
// intensities (NaN included, which clamp01 passes through).
func TestFillRectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rects := []Rect{
		{}, RectWH(5, 5, 0, 4), RectWH(5, 5, 4, 0), {MinX: 9, MinY: 9, MaxX: 2, MaxY: 2},
		RectWH(-30, -20, 15, 10), RectWH(200, 3, 5, 5),
		RectWH(3, 7, 20, 1), RectWH(-5, 0, 200, 1), RectWH(10, 3, 1, 30),
		RectWH(0, 0, 1, 1), RectWH(-2, -2, 100, 100), RectWH(-5, 10, 30, 8), RectWH(50, 40, 30, 30),
	}
	for i := 0; i < 200; i++ {
		rects = append(rects, RectWH(rng.Intn(100)-20, rng.Intn(80)-20, rng.Intn(60), rng.Intn(50)))
	}
	for i, r := range rects {
		src := randomImage(rng, 64+rng.Intn(9), 48+rng.Intn(9))
		v := []float32{0.7, 0, 1, 1.4, -0.3, float32(math.NaN())}[i%6]
		want, got := src.Clone(), src.Clone()
		want.fillRectNaive(r, v)
		got.FillRect(r, v)
		requireSameBits(t, fmt.Sprintf("FillRect %+v v=%v", r, v), got.Pix, want.Pix)
	}
}

func TestNoisyDiffIntoSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched background size")
		}
	}()
	New(4, 4).NoisyDiffInto(make([]float32, 16), New(4, 3), 1, 0.1)
}

// BenchmarkBilinearInto is the patch-shaped upsample (a 60x40 native region
// to YOLOv4's 608 from a 320-pixel corpus), the kernel at each SIMD tier the
// CPU runs (go, avx2, avx512: the blend's body; the lerp runs its AVX2 body
// at both SIMD tiers) against the per-pixel reference. The kernel's tables
// are built (and its blend row grown) once, outside the timed loop, as the
// pooled DownsampleInto path reuses them per shape.
func BenchmarkBilinearInto(b *testing.B) {
	src := benchImage(60, 40)
	dst := New(114, 76)
	t := bilinearTables(dst, src)
	bilinearTablesInto(dst, src, t)
	run := func(name string, fn func(dst, src *Image)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(dst.Pix)) * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(dst, src)
			}
		})
	}
	for _, body := range blendBodies() {
		restore := useTier(body.tier)
		run("kernel/"+body.tier, func(dst, src *Image) { bilinearTablesInto(dst, src, t) })
		restore()
	}
	run("oracle", bilinearNaiveInto)
}

// BenchmarkBoxInto is the box kernel against the prefix-sum oracle on a
// near-identity patch (a 640-pixel corpus at 608) and a heavy one (ratio 20).
func BenchmarkBoxInto(b *testing.B) {
	for _, s := range []struct {
		name           string
		sw, sh, dw, dh int
	}{{"72x60-68x57", 72, 60, 68, 57}, {"120x100-6x5", 120, 100, 6, 5}} {
		src, dst := benchImage(s.sw, s.sh), New(s.dw, s.dh)
		for _, k := range []struct {
			name string
			fn   func(dst, src *Image)
		}{{"kernel", DownsampleInto}, {"oracle", downsamplePrefixInto}} {
			b.Run(s.name+"/"+k.name, func(b *testing.B) {
				b.SetBytes(int64(len(src.Pix)) * 4)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.fn(dst, src)
				}
			})
		}
	}
}

// BenchmarkAddNoise is the same patch noised by the kernel and by the
// historical per-pixel form.
func BenchmarkAddNoise(b *testing.B) {
	img := benchImage(114, 76)
	for _, k := range []struct {
		name string
		fn   func(seed uint64, sigma float32)
	}{{"kernel", img.AddNoise}, {"oracle", img.addNoiseNaive}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)) * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(uint64(i), 0.02)
			}
		})
	}
}

// BenchmarkFill paints rendered-object shapes — a car body, its cabin, a
// person and a face, one of them clipped by the frame's edge — into a
// 320x240 frame, FillRect and FillEllipse each beside its oracle.
func BenchmarkFill(b *testing.B) {
	img := benchImage(320, 240)
	rects := []Rect{RectWH(100, 80, 56, 30), RectWH(114, 80, 28, 12), RectWH(200, 120, 18, 44), RectWH(300, 40, 40, 40)}
	for _, k := range []struct {
		name string
		fn   func(r Rect, v float32)
	}{
		{"FillRect/kernel", img.FillRect}, {"FillRect/oracle", img.fillRectNaive},
		{"FillEllipse/kernel", img.FillEllipse}, {"FillEllipse/oracle", img.fillEllipseNaive},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.fn(rects[i%len(rects)], 0.7)
			}
		})
	}
}

// motionBlurHNaiveInto is the O(w·(left+right)) reference implementation
// of MotionBlurHInto, kept as the property-test oracle.
func motionBlurHNaiveInto(dst, src *Image, left, right, offX int) {
	if dst.H != src.H {
		panic("raster: motionBlurHNaiveInto height mismatch")
	}
	for y := 0; y < dst.H; y++ {
		for x := 0; x < dst.W; x++ {
			var sum float64
			cnt := 0
			for cx := x + offX - left; cx <= x+offX+right; cx++ {
				if cx < 0 || cx >= src.W {
					continue
				}
				sum += float64(src.At(cx, y))
				cnt++
			}
			if cnt > 0 {
				dst.Set(x, y, float32(sum/float64(cnt)))
			} else {
				dst.Set(x, y, 0)
			}
		}
	}
}

// quantizeLevelsNaive is the scalar reference for QuantizeLevels, kept as
// the property-test oracle.
func quantizeLevelsNaive(img *Image, levels int) {
	scale := float64(levels - 1)
	for i, v := range img.Pix {
		img.Pix[i] = float32(math.Round(float64(clamp01(v))*scale) / scale)
	}
}

// downsampleNaiveInto is the reference box-filter downsampler: every
// destination pixel scans its full source window via boxAverage. It is the
// oracle the box kernel is property-tested against (1e-5 per pixel) and is
// otherwise unused.
func downsampleNaiveInto(dst, src *Image) {
	w, h := dst.W, dst.H
	xRatio := float64(src.W) / float64(w)
	yRatio := float64(src.H) / float64(h)
	for dy := 0; dy < h; dy++ {
		sy0 := float64(dy) * yRatio
		sy1 := float64(dy+1) * yRatio
		for dx := 0; dx < w; dx++ {
			sx0 := float64(dx) * xRatio
			sx1 := float64(dx+1) * xRatio
			dst.Pix[dy*w+dx] = boxAverage(src, sx0, sy0, sx1, sy1)
		}
	}
}

// boxAverage integrates the source image over the continuous box
// [x0,x1)x[y0,y1) with partial-pixel weighting at the edges.
func boxAverage(src *Image, x0, y0, x1, y1 float64) float32 {
	ix0, iy0 := int(x0), int(y0)
	ix1, iy1 := int(x1), int(y1)
	if ix1 >= src.W {
		ix1 = src.W - 1
	}
	if iy1 >= src.H {
		iy1 = src.H - 1
	}
	var sum, weight float64
	for sy := iy0; sy <= iy1; sy++ {
		wy := 1.0
		if sy == iy0 {
			wy -= y0 - float64(iy0)
		}
		if sy == iy1 {
			wy -= float64(iy1) + 1 - y1
		}
		if wy <= 0 {
			continue
		}
		row := sy * src.W
		for sx := ix0; sx <= ix1; sx++ {
			wx := 1.0
			if sx == ix0 {
				wx -= x0 - float64(ix0)
			}
			if sx == ix1 {
				wx -= float64(ix1) + 1 - x1
			}
			if wx <= 0 {
				continue
			}
			sum += float64(src.Pix[row+sx]) * wx * wy
			weight += wx * wy
		}
	}
	if weight == 0 {
		return 0
	}
	return float32(sum / weight)
}

// boxBlurNaiveInto is the O(r^2)-per-pixel reference blur: every output
// pixel scans its full in-bounds window directly. Oracle only.
func boxBlurNaiveInto(dst, src *Image, r int) {
	if dst.W != src.W || dst.H != src.H {
		panic("raster: boxBlurNaiveInto size mismatch")
	}
	if r <= 0 {
		copy(dst.Pix, src.Pix)
		return
	}
	w, h := src.W, src.H
	for y := 0; y < h; y++ {
		y0, y1 := y-r, y+r+1
		if y0 < 0 {
			y0 = 0
		}
		if y1 > h {
			y1 = h
		}
		for x := 0; x < w; x++ {
			x0, x1 := x-r, x+r+1
			if x0 < 0 {
				x0 = 0
			}
			if x1 > w {
				x1 = w
			}
			var sum float64
			for yy := y0; yy < y1; yy++ {
				row := yy * w
				for xx := x0; xx < x1; xx++ {
					sum += float64(src.Pix[row+xx])
				}
			}
			dst.Pix[y*w+x] = float32(sum / float64((x1-x0)*(y1-y0)))
		}
	}
}
