package raster

import (
	"slices"
	"sort"
	"sync"
)

// Downsample resizes the image to (w, h) using box-filter area averaging —
// the physically correct model of what a lower-resolution sensor (or a
// standards-compliant video rescaler) does to a frame. Each destination
// pixel is the area-weighted average of the source pixels it covers, so
// small objects lose contrast against the background as their boundary
// pixels are averaged away. This is the mechanism by which the reduced
// frame resolution intervention destroys detectability.
//
// Upsampling requests fall back to bilinear interpolation; scale factors of
// exactly 1 return a clone.
func Downsample(src *Image, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("raster: Downsample to non-positive size")
	}
	dst := New(w, h)
	DownsampleInto(dst, src)
	return dst
}

// DownsampleInto resamples src into dst at dst's dimensions, overwriting
// every destination sample: ResampleRegionInto over all of src. It is the
// allocation-free core of Downsample: detection hot paths pair it with
// GetScratch/PutScratch so per-frame rasters come from a pool instead of the
// heap. dst and src must not alias.
func DownsampleInto(dst, src *Image) {
	resampleInto(dst, src, RectWH(0, 0, src.W, src.H), 0, dst.H)
}

// ResampleRegionInto resamples the rectangle r of src, which must lie inside
// src, into dst at dst's dimensions. It reads src in place and writes the
// bits DownsampleInto writes from a copy of the rectangle, so a caller that
// holds a whole raster (a video's static background) resamples a patch of it
// without copying the patch out first.
//
// Shrinking both axes is the box kernel (boxRowsInto); growing either axis
// is bilinear (bilinearRowsInto); equal sizes copy.
func ResampleRegionInto(dst, src *Image, r Rect) {
	resampleInto(dst, src, r, 0, dst.H)
}

// ResampleRowsInto writes destination rows [lo, hi) of DownsampleInto(dst,
// src) — the same kernels, so the same bits — and leaves dst's other rows
// alone. It reads only the source rows SourceRows names; the rest of src may
// hold anything, so a caller that holds the other rows already (a frame that
// is its background wherever no object is) renders and resamples only the
// band it needs.
func ResampleRowsInto(dst, src *Image, lo, hi int) {
	resampleInto(dst, src, RectWH(0, 0, src.W, src.H), lo, hi)
}

// resampleInto is the one resample: destination rows [lo, hi) of the
// rectangle r of src resampled to dst's dimensions.
func resampleInto(dst, src *Image, r Rect, lo, hi int) {
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("raster: DownsampleInto to non-positive size")
	}
	if r.Empty() || r.MinX < 0 || r.MinY < 0 || r.MaxX > src.W || r.MaxY > src.H {
		panic("raster: resample region outside the source")
	}
	if lo < 0 || hi > h || lo > hi {
		panic("raster: ResampleRowsInto rows outside the destination")
	}
	switch {
	case lo == hi: // no rows to write
	case w == r.W() && h == r.H():
		for y := lo; y < hi; y++ {
			copy(dst.Pix[y*w:(y+1)*w], regionRow(src, r, y))
		}
	default:
		t := getTables(r.W(), r.H(), w, h)
		defer tablesPool.Put(t)
		if w > r.W() || h > r.H() {
			bilinearRowsInto(dst, src, r, lo, hi, t)
		} else {
			boxRowsInto(dst, src, r, lo, hi, t)
		}
	}
}

// resampleTables is what a resample of one shape (a sw x sh source rectangle
// to w x h) tables, and its kernel's scratch, pooled with the shape it was
// built for: a detector patch resamples one shape two to four times (its
// background, then each object band), a camera session once per frame.
type resampleTables struct {
	sw, sh, w, h int
	srcRows      []rowSpan     // each destination row's source rows
	edges        []boxEdge     // box: the w+1 column window edges
	inv          []float64     // box: 1 / each column window's width
	cols, rows   []bilinearTap // bilinear: each destination column's and row's taps
	ints         []float64     // box: each source row's integral over each column window
	taps         []boxTap      // box: the current destination row's source rows
	blend        []float32     // bilinear: two source rows blended at every column
}

// rowSpan is the source rows [lo, hi) one destination row reads.
type rowSpan struct{ lo, hi int32 }

var tablesPool = sync.Pool{New: func() any { return new(resampleTables) }}

// getTables returns pooled tables for sw x sh -> w x h, built unless they
// were last built for that shape. Return them to tablesPool.
func getTables(sw, sh, w, h int) *resampleTables {
	t := tablesPool.Get().(*resampleTables)
	if t.sw != sw || t.sh != sh || t.w != w || t.h != h {
		t.sw, t.sh, t.w, t.h = sw, sh, w, h
		t.srcRows = slices.Grow(t.srcRows[:0], h)[:h]
		if w > sw || h > sh {
			t.buildBilinear()
		} else {
			t.buildBox()
		}
	}
	return t
}

// SourceRows returns the source rows [slo, shi) that destination rows
// [lo, hi) of a resample of src into dst read, for lo < hi. Both ends grow
// with the destination row, so a band of destination rows reads one band of
// source rows.
func SourceRows(dst, src *Image, lo, hi int) (slo, shi int) {
	t := getTables(src.W, src.H, dst.W, dst.H)
	defer tablesPool.Put(t)
	return int(t.srcRows[lo].lo), int(t.srcRows[hi-1].hi)
}

// DestinationRows returns the destination rows [lo, hi) of a resample of src
// into dst whose SourceRows meet [slo, shi); empty (lo >= hi) when no row
// reads them, as in a bilinear shrink that samples between them.
func DestinationRows(dst, src *Image, slo, shi int) (lo, hi int) {
	t := getTables(src.W, src.H, dst.W, dst.H)
	defer tablesPool.Put(t)
	rows := t.srcRows
	lo = sort.Search(len(rows), func(dy int) bool { return int(rows[dy].hi) > slo })
	hi = sort.Search(len(rows), func(dy int) bool { return int(rows[dy].lo) >= shi })
	return lo, hi
}

// regionRow is row y of the rectangle r of img.
func regionRow(img *Image, r Rect, y int) []float32 {
	o := (r.MinY+y)*img.W + r.MinX
	return img.Pix[o : o+r.W()]
}

// boxRows returns destination row dy's continuous source window [y0, y1)
// in the box kernel and the first and last source rows it touches.
func boxRows(dy int, yRatio float64, sh int) (y0, y1 float64, iy0, iy1 int) {
	y0 = float64(dy) * yRatio
	y1 = float64(dy+1) * yRatio
	iy0 = int(y0)
	iy1 = int(y1)
	if iy1 > sh-1 {
		iy1 = sh - 1
	}
	return y0, y1, iy0, iy1
}

// boxWeight is source row sy's share of the window [y0, y1), which spans
// rows iy0..iy1: 1 less the parts of the edge rows outside the window.
func boxWeight(sy int, y0, y1 float64, iy0, iy1 int) float64 {
	wy := 1.0
	if sy == iy0 {
		wy -= y0 - float64(iy0)
	}
	if sy == iy1 {
		wy -= float64(iy1) + 1 - y1
	}
	return wy
}

// boxEdge is one column window edge of the box kernel, at the continuous
// source column t = k·ratio: a row's integral up to t is P[i] + f·row[i],
// with i = min(int(t), n-1), f = t - i and P the row's prefix sum.
type boxEdge struct {
	i int
	f float64
}

// boxTap is one source row of a destination row's window: the offset of its
// column integrals in resampleTables.ints and its weight.
type boxTap struct {
	off int
	wy  float64
}

// buildBox tables the box kernel's column window edges and widths, and each
// destination row's window rows (at equal size, its source row).
func (t *resampleTables) buildBox() {
	sw, sh, w, h := t.sw, t.sh, t.w, t.h
	t.edges = slices.Grow(t.edges[:0], w+1)[:w+1]
	t.inv = slices.Grow(t.inv[:0], w)[:w]
	ratio := float64(sw) / float64(w)
	for k := range t.edges {
		x := float64(k) * ratio
		i := min(int(x), sw-1)
		t.edges[k] = boxEdge{i: i, f: x - float64(i)}
	}
	for dx := range t.inv {
		t.inv[dx] = 1 / (float64(dx+1)*ratio - float64(dx)*ratio)
	}
	yRatio := float64(sh) / float64(h)
	for dy := range t.srcRows {
		y0, y1, iy0, iy1 := boxRows(dy, yRatio, sh)
		if boxWeight(iy1, y0, y1, iy0, iy1) <= 0 {
			iy1-- // an exact window edge: the kernel skips the row it ends on
		}
		t.srcRows[dy] = rowSpan{int32(iy0), int32(iy1 + 1)}
	}
}

// boxRowsInto is the box kernel over destination rows [lo, hi) of the
// rectangle r of src; it integrates only the source rows those rows read.
// Each destination pixel is the continuous-box integral of the source over
// its window, normalised by the window's area — what the per-pixel scan
// downsampleNaiveInto computes, in O(src + dst) instead of O(window) per
// pixel.
//
// Horizontal pass: a source row's integral over column dx's window is
// E(dx+1) - E(dx), where E(k) is the row's integral up to window edge k (its
// running prefix sum plus the edge pixel's fraction). Column dx's right edge
// is column dx+1's left edge, so each edge is evaluated once per row, and two
// rows' running sums — independent float64 chains, each summed in its own
// order — advance together. Vertical pass: each column accumulates its
// window's source rows with the boundary weights in a register, in source
// row order, then normalises by the two window widths.
func boxRowsInto(dst, src *Image, r Rect, lo, hi int, t *resampleTables) {
	w, h := dst.W, dst.H
	sh := r.H()
	slo, shi := int(t.srcRows[lo].lo), int(t.srcRows[hi-1].hi)
	t.ints = slices.Grow(t.ints[:0], (shi-slo)*w)[:(shi-slo)*w]
	edges, inv, ints := t.edges, t.inv, t.ints

	for sy := slo; sy < shi; sy += 2 {
		sy1 := min(sy+1, shi-1) // an odd last row pairs with itself
		integrateRows(ints[(sy-slo)*w:][:w], ints[(sy1-slo)*w:][:w], regionRow(src, r, sy), regionRow(src, r, sy1), edges)
	}

	yRatio := float64(sh) / float64(h)
	for dy := lo; dy < hi; dy++ {
		y0, y1, iy0, iy1 := boxRows(dy, yRatio, sh)
		taps := t.taps[:0]
		for sy := iy0; sy <= iy1; sy++ {
			if wy := boxWeight(sy, y0, y1, iy0, iy1); wy > 0 {
				taps = append(taps, boxTap{off: (sy - slo) * w, wy: wy})
			}
		}
		t.taps = taps
		invY := 1 / (y1 - y0)
		out := dst.Pix[dy*w : (dy+1)*w]
		if len(taps) == 2 {
			// Nearly every window of a near-identity box: the loop below,
			// unrolled, because a two-step tap loop per column costs more
			// than its arithmetic.
			w0, w1 := taps[0].wy, taps[1].wy
			r0, r1 := ints[taps[0].off:][:w], ints[taps[1].off:][:w]
			for dx := range out {
				acc := 0.0
				acc += w0 * r0[dx]
				acc += w1 * r1[dx]
				out[dx] = float32(acc * inv[dx] * invY)
			}
			continue
		}
		for dx := range out {
			acc := 0.0
			for _, t := range taps {
				acc += t.wy * ints[t.off+dx]
			}
			out[dx] = float32(acc * inv[dx] * invY)
		}
	}
}

// integrateRows writes two source rows' integrals over every column window,
// out[dx] = E(dx+1) - E(dx) for each.
func integrateRows(out0, out1 []float64, r0, r1 []float32, edges []boxEdge) {
	// Known lengths spare r1's and the outputs' bounds checks.
	r1, out0, out1 = r1[:len(r0)], out0[:len(edges)-1], out1[:len(edges)-1]
	var s0, s1 float64 // each row's prefix sum of the columns before x
	x := 0
	e := edges[0]
	c0 := s0 + e.f*float64(r0[e.i])
	c1 := s1 + e.f*float64(r1[e.i])
	for k, e := range edges[1:] {
		for ; x < e.i; x++ {
			s0 += float64(r0[x])
			s1 += float64(r1[x])
		}
		n0 := s0 + e.f*float64(r0[e.i])
		n1 := s1 + e.f*float64(r1[e.i])
		out0[k], out1[k] = n0-c0, n1-c1
		c0, c1 = n0, n1
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

// bilinearTap is one destination index's clamped source pair along an axis:
// samples i0 and i1 blended by f.
type bilinearTap struct {
	i0, i1 int32
	f      float32
}

// makeBilinearTap maps destination index d (of dstN) to its source pair on an
// axis of srcN samples. Coordinates are clamped to the source bounds, so edge
// pixels replicate the nearest source sample.
func makeBilinearTap(d, srcN, dstN int) bilinearTap {
	s := (float64(d)+0.5)*float64(srcN)/float64(dstN) - 0.5
	i0 := int(s)
	f := float32(s - float64(i0))
	if s <= 0 {
		i0, f = 0, 0
	} else if i0 >= srcN-1 {
		i0, f = srcN-1, 0
	}
	i1 := i0 + 1
	if i1 > srcN-1 {
		i1 = srcN - 1
	}
	return bilinearTap{i0: int32(i0), i1: int32(i1), f: f}
}

// buildBilinear tables the bilinear kernel's column and row taps.
func (t *resampleTables) buildBilinear() {
	t.cols = slices.Grow(t.cols[:0], t.w)[:t.w]
	t.rows = slices.Grow(t.rows[:0], t.h)[:t.h]
	for dx := range t.cols {
		t.cols[dx] = makeBilinearTap(dx, t.sw, t.w)
	}
	for dy := range t.rows {
		t.rows[dy] = makeBilinearTap(dy, t.sh, t.h)
		t.srcRows[dy] = rowSpan{t.rows[dy].i0, t.rows[dy].i1 + 1}
	}
}

// bilinearRowsInto resizes destination rows [lo, hi) of the rectangle r of
// src with bilinear interpolation; used for the upsampling path (rendering
// previews, and model input sizes above the capture resolution along either
// axis — every patch of a 320-pixel corpus at YOLOv4's native 608). A
// 1-pixel-wide or -high source tiles its row/column (see makeBilinearTap's
// clamp).
//
// The per-pixel form (bilinearNaiveInto, the test oracle) re-derives the
// float64 coordinates and blends both source rows horizontally for every
// destination pixel. Here the column and row taps are tabled once per shape
// — as the box kernel tables its window edges — and each source row's
// horizontal blend is computed once and reused by every destination row
// that reads it (an upsample revisits a source row about scale times, and
// the lower row of one pair is the upper row of the next). Every blend is
// the same expression on the same float32 operands as the per-pixel form,
// so every sample is bit-identical to it.
func bilinearRowsInto(dst, src *Image, r Rect, lo, hi int, t *resampleTables) {
	w := dst.W
	cols := t.cols
	t.blend = slices.Grow(t.blend[:0], 2*w)[:2*w]
	tops, bots := t.blend[:w], t.blend[w:]
	topY, botY := -1, -1 // the source rows tops and bots hold
	for dy := lo; dy < hi; dy++ {
		ty := t.rows[dy]
		y0, y1, fy := int(ty.i0), int(ty.i1), ty.f
		if y0 == botY {
			tops, bots, topY, botY = bots, tops, botY, topY
		}
		if y0 != topY {
			blendRow(tops, regionRow(src, r, y0), cols)
			topY = y0
		}
		if y1 != botY {
			blendRow(bots, regionRow(src, r, y1), cols)
			botY = y1
		}
		out := dst.Pix[dy*w : (dy+1)*w]
		for dx := range out {
			top, bot := tops[dx], bots[dx]
			out[dx] = top + (bot-top)*fy
		}
	}
}

// blendRow writes one source row blended at every destination column.
func blendRow(out, row []float32, cols []bilinearTap) {
	cols = cols[:len(out)]
	for dx := range out {
		c := &cols[dx]
		v0, v1 := row[c.i0], row[c.i1]
		out[dx] = v0 + (v1-v0)*c.f
	}
}

// BoxBlur applies a (2r+1)x(2r+1) box blur, the detector's
// background-estimation primitive. Border pixels average over the
// in-bounds part of the kernel.
func BoxBlur(src *Image, r int) *Image {
	dst := New(src.W, src.H)
	BoxBlurInto(dst, src, r)
	return dst
}

// BoxBlurInto writes the box blur of src into dst, which must share src's
// dimensions and not alias it. Every destination sample is overwritten, so
// dst may come from GetScratch.
//
// The kernel is a separable two-pass sliding window with float64 running
// sums: a horizontal pass turns each row into windowed sums in O(1) per
// pixel, and a vertical pass slides a row-sum accumulator down fixed
// 32-row blocks — re-seeded at every block boundary, so the accumulation
// pattern (and hence every output bit) is a function of the image size
// alone. This replaces the summed-area-table formulation, which allocated
// a (W+1)x(H+1) float64 table per call; the O(r^2)-per-pixel direct scan
// survives as boxBlurNaiveInto, the oracle the fast kernel is
// property-tested against.
func BoxBlurInto(dst, src *Image, r int) {
	if dst.W != src.W || dst.H != src.H {
		panic("raster: BoxBlurInto size mismatch")
	}
	if r <= 0 {
		copy(dst.Pix, src.Pix)
		return
	}
	w, h := src.W, src.H

	// Horizontal pass: hs[y*w+x] = sum of src row y over [x-r, x+r]&bounds.
	hs := getF64(w * h)
	defer putF64(hs)
	forRowBlocks(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := src.Pix[y*w : (y+1)*w]
			out := hs[y*w : (y+1)*w]
			var sum float64
			for x := 0; x <= r && x < w; x++ {
				sum += float64(row[x])
			}
			for x := 0; x < w; x++ {
				out[x] = sum
				if x+r+1 < w {
					sum += float64(row[x+r+1])
				}
				if x-r >= 0 {
					sum -= float64(row[x-r])
				}
			}
		}
	})

	// invCntX[x] = 1 / horizontal in-bounds window width.
	invCntX := getF64(w)
	defer putF64(invCntX)
	for x := 0; x < w; x++ {
		x0, x1 := x-r, x+r+1
		if x0 < 0 {
			x0 = 0
		}
		if x1 > w {
			x1 = w
		}
		invCntX[x] = 1 / float64(x1-x0)
	}

	// Vertical pass: slide the row-sum window down each fixed block.
	forRowBlocks(h, func(lo, hi int) {
		vacc := getF64(w)
		defer putF64(vacc)
		for i := range vacc {
			vacc[i] = 0
		}
		yw0, yw1 := lo-r, lo+r+1
		if yw0 < 0 {
			yw0 = 0
		}
		if yw1 > h {
			yw1 = h
		}
		for y := yw0; y < yw1; y++ {
			row := hs[y*w : (y+1)*w]
			for x := range vacc {
				vacc[x] += row[x]
			}
		}
		for y := lo; y < hi; y++ {
			y0, y1 := y-r, y+r+1
			if y0 < 0 {
				y0 = 0
			}
			if y1 > h {
				y1 = h
			}
			invCntY := 1 / float64(y1-y0)
			out := dst.Pix[y*w : (y+1)*w]
			for x := range out {
				out[x] = float32(vacc[x] * invCntX[x] * invCntY)
			}
			if y+1 < hi {
				if y+r+1 < h {
					add := hs[(y+r+1)*w : (y+r+2)*w]
					for x := range vacc {
						vacc[x] += add[x]
					}
				}
				if y-r >= 0 {
					sub := hs[(y-r)*w : (y-r+1)*w]
					for x := range vacc {
						vacc[x] -= sub[x]
					}
				}
			}
		}
	})
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
