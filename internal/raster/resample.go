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
	resampleInto("DownsampleInto", dst, src, RectWH(0, 0, src.W, src.H), 0, dst.H)
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
	resampleInto("ResampleRegionInto", dst, src, r, 0, dst.H)
}

// ResampleRowsInto writes destination rows [lo, hi) of DownsampleInto(dst,
// src) — the same kernels, so the same bits — and leaves dst's other rows
// alone. It reads only the source rows SourceRows names; the rest of src may
// hold anything, so a caller that holds the other rows already (a frame that
// is its background wherever no object is) renders and resamples only the
// band it needs.
func ResampleRowsInto(dst, src *Image, lo, hi int) {
	resampleInto("ResampleRowsInto", dst, src, RectWH(0, 0, src.W, src.H), lo, hi)
}

// resampleInto is the one resample: destination rows [lo, hi) of the
// rectangle r of src resampled to dst's dimensions. entry is the exported
// function the caller called, which its panics name.
func resampleInto(entry string, dst, src *Image, r Rect, lo, hi int) {
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("raster: " + entry + " to non-positive size")
	}
	if r.Empty() || r.MinX < 0 || r.MinY < 0 || r.MaxX > src.W || r.MaxY > src.H {
		panic("raster: " + entry + " region outside the source")
	}
	if lo < 0 || hi > h || lo > hi {
		panic("raster: " + entry + " rows outside the destination")
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
	srcRows      []rowSpan    // each destination row's source rows
	edges        []boxEdge    // box: the w+1 column window edges
	inv          []float64    // box: 1 / each column window's width
	cols, rows   bilinearTaps // bilinear: each destination column's and row's taps
	ints         []float64    // box: each source row's integral over each column window
	taps         []boxTap     // box: the current destination row's source rows
	blend        []float32    // bilinear: two source rows blended at every column
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
// is column dx+1's left edge, so each edge is evaluated once per row, and
// several rows' running sums — independent float64 chains, each summed in
// its own order — advance together: four in the AVX2 body's lanes, two in
// the Go body. Vertical pass: each column accumulates its window's source
// rows with the boundary weights in a register, in source row order, then
// normalises by the two window widths.
func boxRowsInto(dst, src *Image, r Rect, lo, hi int, t *resampleTables) {
	w, h := dst.W, dst.H
	sh := r.H()
	slo, shi := int(t.srcRows[lo].lo), int(t.srcRows[hi-1].hi)
	t.ints = slices.Grow(t.ints[:0], (shi-slo)*w)[:(shi-slo)*w]
	integrateRows(t.ints, src, r, slo, shi, t.edges)

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
		boxCols(dst.Pix[dy*w:(dy+1)*w], t.ints, taps, t.inv, 1/(y1-y0))
	}
}

// boxCols is the box kernel's vertical pass for one destination row (see
// boxColsGo). With simd the AVX2 body computes the columns four at a time
// and the Go body the len%4 tail.
func boxCols(out []float32, ints []float64, taps []boxTap, inv []float64, invY float64) {
	n := 0
	if simd {
		n = len(out) &^ 3
		boxColsAVX2(out[:n], ints, taps, inv[:n], invY)
	}
	boxColsGo(out, ints, taps, inv, invY, n)
}

// boxColsGo is the portable body of boxCols and its oracle: columns
// x0 <= dx < len(out) of one destination row, each the sum over taps, in
// order, of the tap's weight times its row's integral at dx, then times the
// two inverse window widths.
func boxColsGo(out []float32, ints []float64, taps []boxTap, inv []float64, invY float64, x0 int) {
	inv = inv[:len(out)]
	if len(taps) == 2 {
		// Nearly every window of a near-identity box: the loop below,
		// unrolled, because a two-step tap loop per column costs more than
		// its arithmetic.
		w0, w1 := taps[0].wy, taps[1].wy
		r0, r1 := ints[taps[0].off:][:len(out)], ints[taps[1].off:][:len(out)]
		for dx := max(x0, 0); dx < len(out); dx++ {
			acc := 0.0
			acc += w0 * r0[dx]
			acc += w1 * r1[dx]
			out[dx] = float32(acc * inv[dx] * invY)
		}
		return
	}
	for dx := max(x0, 0); dx < len(out); dx++ {
		acc := 0.0
		for _, t := range taps {
			acc += t.wy * ints[t.off+dx]
		}
		out[dx] = float32(acc * inv[dx] * invY)
	}
}

// integrateRows writes the integrals of source rows [slo, shi) of the
// rectangle r of src over every column window, row sy's at
// ints[(sy-slo)*w:], w = len(edges)-1. With simd the AVX2 body takes the
// rows four at a time and the Go body the rest, two at a time.
func integrateRows(ints []float64, src *Image, r Rect, slo, shi int, edges []boxEdge) {
	w := len(edges) - 1
	sy := slo
	if simd {
		for ; sy+4 <= shi; sy += 4 {
			o := (r.MinY+sy)*src.W + r.MinX
			integrateRows4AVX2(ints[(sy-slo)*w:][:4*w], src.Pix[o:o+3*src.W+r.W()], src.W, edges)
		}
	}
	for ; sy < shi; sy += 2 {
		sy1 := min(sy+1, shi-1) // an odd last row pairs with itself
		integrateRowsGo(ints[(sy-slo)*w:][:w], ints[(sy1-slo)*w:][:w], regionRow(src, r, sy), regionRow(src, r, sy1), edges)
	}
}

// integrateRowsGo writes two source rows' integrals over every column
// window, out[dx] = E(dx+1) - E(dx) for each. It is the portable body of the
// horizontal pass and the oracle of integrateRows4AVX2, which runs the same
// chain per row.
func integrateRowsGo(out0, out1 []float64, r0, r1 []float32, edges []boxEdge) {
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

// bilinearTaps is one axis's clamped source pairs as parallel columns:
// destination index d blends source samples i0[d] and i1[d] by f[d]. The
// SIMD blends gather or permute through i0 and i1 directly.
type bilinearTaps struct {
	i0, i1 []int32
	f      []float32
}

// build tables destination indices [0, dstN) on an axis of srcN samples.
// Coordinates are clamped to the source bounds, so edge pixels replicate the
// nearest source sample.
func (a *bilinearTaps) build(srcN, dstN int) {
	a.i0 = slices.Grow(a.i0[:0], dstN)[:dstN]
	a.i1 = slices.Grow(a.i1[:0], dstN)[:dstN]
	a.f = slices.Grow(a.f[:0], dstN)[:dstN]
	for d := range dstN {
		s := (float64(d)+0.5)*float64(srcN)/float64(dstN) - 0.5
		i0 := int(s)
		f := float32(s - float64(i0))
		if s <= 0 {
			i0, f = 0, 0
		} else if i0 >= srcN-1 {
			i0, f = srcN-1, 0
		}
		a.i0[d], a.i1[d], a.f[d] = int32(i0), int32(min(i0+1, srcN-1)), f
	}
}

// buildBilinear tables the bilinear kernel's column and row taps.
func (t *resampleTables) buildBilinear() {
	t.cols.build(t.sw, t.w)
	t.rows.build(t.sh, t.h)
	for dy := range t.srcRows {
		t.srcRows[dy] = rowSpan{t.rows.i0[dy], t.rows.i1[dy] + 1}
	}
}

// bilinearRowsInto resizes destination rows [lo, hi) of the rectangle r of
// src with bilinear interpolation; used for the upsampling path (rendering
// previews, and model input sizes above the capture resolution along either
// axis — every patch of a 320-pixel corpus at YOLOv4's native 608). A
// 1-pixel-wide or -high source tiles its row/column (see bilinearTaps.build's
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
	t.blend = slices.Grow(t.blend[:0], 2*w)[:2*w]
	tops, bots := t.blend[:w], t.blend[w:]
	topY, botY := -1, -1 // the source rows tops and bots hold
	for dy := lo; dy < hi; dy++ {
		y0, y1 := int(t.rows.i0[dy]), int(t.rows.i1[dy])
		if y0 == botY {
			tops, bots, topY, botY = bots, tops, botY, topY
		}
		if y0 != topY {
			blendRow(tops, regionRow(src, r, y0), &t.cols)
			topY = y0
		}
		if y1 != botY {
			blendRow(bots, regionRow(src, r, y1), &t.cols)
			botY = y1
		}
		lerpRow(dst.Pix[dy*w:(dy+1)*w], tops, bots, t.rows.f[dy])
	}
}

// blendRow writes one source row blended at every destination column (see
// blendRowGo). With simd512 the AVX-512 body computes every column, sixteen
// per step; with simd the AVX2 body computes eight columns per iteration
// and the Go body the len%8 tail.
func blendRow(out, row []float32, cols *bilinearTaps) {
	if simd512 {
		n := len(out)
		blendRowAVX512(out, row, cols.i0[:n], cols.i1[:n], cols.f[:n])
		return
	}
	n := 0
	if simd {
		n = len(out) &^ 7
		blendRowAVX2(out[:n], row, cols.i0[:n], cols.i1[:n], cols.f[:n])
	}
	blendRowGo(out, row, cols, n)
}

// blendRowGo is the portable body of blendRow and its oracle: columns
// x0 <= dx < len(out) of row blended horizontally at the column taps.
func blendRowGo(out, row []float32, cols *bilinearTaps, x0 int) {
	i0, i1, f := cols.i0[:len(out)], cols.i1[:len(out)], cols.f[:len(out)]
	for dx := max(x0, 0); dx < len(out); dx++ {
		v0, v1 := row[i0[dx]], row[i1[dx]]
		out[dx] = v0 + (v1-v0)*f[dx]
	}
}

// lerpRow writes the vertical blend of two blended source rows (see
// lerpRowGo). With simd the AVX2 body computes eight columns per iteration
// and the Go body the len%8 tail.
func lerpRow(out, tops, bots []float32, fy float32) {
	n := 0
	if simd {
		n = len(out) &^ 7
		lerpRowAVX2(out[:n], tops[:n], bots[:n], fy)
	}
	lerpRowGo(out, tops, bots, fy, n)
}

// lerpRowGo is the portable body of lerpRow and its oracle: columns
// x0 <= dx < len(out) of top + (bot-top)*fy.
func lerpRowGo(out, tops, bots []float32, fy float32, x0 int) {
	tops, bots = tops[:len(out)], bots[:len(out)]
	for dx := max(x0, 0); dx < len(out); dx++ {
		top, bot := tops[dx], bots[dx]
		out[dx] = top + (bot-top)*fy
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
	hsSlab, hs := getF64(w * h)
	defer putF64(hsSlab)
	for y := 0; y < h; y++ {
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

	// invCntX[x] = 1 / horizontal in-bounds window width.
	invCntXSlab, invCntX := getF64(w)
	defer putF64(invCntXSlab)
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

	// Vertical pass: slide the row-sum window down each fixed block of
	// kernelRowBlock rows, re-seeded at the block's first row.
	vaccSlab, vacc := getF64(w)
	defer putF64(vaccSlab)
	for lo := 0; lo < h; lo += kernelRowBlock {
		hi := min(lo+kernelRowBlock, h)
		clear(vacc)
		for y := max(lo-r, 0); y < min(lo+r+1, h); y++ {
			row := hs[y*w : (y+1)*w]
			for x := range vacc {
				vacc[x] += row[x]
			}
		}
		for y := lo; y < hi; y++ {
			y0, y1 := max(y-r, 0), min(y+r+1, h)
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
	}
}
