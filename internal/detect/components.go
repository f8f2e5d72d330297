package detect

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"smokescreen/internal/raster"
)

// component is a connected region of above-threshold pixels.
type component struct {
	BBox raster.Rect
	Area int
	// SumContrast accumulates |pixel - background| over the component so
	// the confidence model can use the mean contrast.
	SumContrast float64
}

// MeanContrast returns the component's average absolute contrast.
func (c *component) MeanContrast() float64 {
	if c.Area == 0 {
		return 0
	}
	return c.SumContrast / float64(c.Area)
}

// floatRun is one horizontal run of above-threshold pixels, [x0, x1) on row
// y, carrying a provisional union-find label and the float64 sum of its
// pixels' contrasts. Runs are kept in raster order.
type floatRun struct {
	x0, x1, y int32
	label     int32
	sum       float64
}

// floatCCScratch pools floatComponents' working set: the plane's contrasts
// and threshold mask (smoothPlane), a row of +0, and what scales with the
// number of above-threshold runs.
type floatCCScratch struct {
	abs, zero []float32 // the plane's contrasts |s|; a row of +0
	mask      []uint64  // the plane's threshold mask, maskWords(w) per row
	runs      []floatRun
	parent    []int32
	compOf    []int32 // union-find root -> index in comps, -1 = unseen
	comps     []component
}

var floatCCPool = sync.Pool{New: func() any { return &floatCCScratch{} }}

// floatComponents is the float detector's back half — 3x3 box denoise,
// |v| > tau threshold and 4-connected component labelling — over the signed
// difference plane, with simd (raster.SIMD; false runs the Go bodies alone)
// picking the denoise's and the run sums' bodies. It replaced three
// whole-plane stages (blur3, absMask and a per-pixel union-find labeller,
// retained in oracle_test.go) and is bit-identical to them:
//
//   - One smoothPlane call computes every smoothed sample s as the separable
//     blur did: the vertical 3-tap sum (row + previous + next, in that
//     order), formed inside the horizontal loop, then the horizontal 3-tap
//     sum times the reciprocal of the in-bounds window size (a division on
//     1-pixel-wide planes, as before). An edge row adds a row of +0 for its
//     missing neighbour, which changes no sum but the sign of a zero, and no
//     zero is above a threshold.
//   - A pixel is masked when s > tau or s < -tau, which is |s| > tau for
//     every s but NaN, which neither form masks. smoothPlane stores the
//     plane's |s| and its mask: maskWords(w) words per row, column x at bit
//     x+maskOff. The labeller walks the mask plane in one loop and reads
//     each row's run edges off its words with TrailingZeros64.
//   - Runs are united with the overlapping runs of the previous row, so
//     labelling costs O(runs) instead of three passes over w*h labels. No
//     label plane exists.
//   - Each run sums its pixels' float64(|s|) (runSum: eight accumulators in
//     two four-lane registers, then the last three in order), and a
//     component's SumContrast is the sum of its runs' sums. That equals the
//     pixel labeller's raster-order sum bit for bit, in whatever order the
//     runs' pixels are summed, because no partial sum rounds: with
//     tau >= 2^-9 every masked |s| is a float32 of at least 2^-9, so an
//     integer multiple of 2^-32; plane samples lie in [-1, 1], so
//     |s| <= 1 + 2^-20; and a plane has fewer than 2^20 pixels (at most a
//     model's input, 640²), so every partial sum is a multiple of 2^-32
//     below 2^21, which float64 holds exactly, in any order. The same
//     argument carries the run sums' accumulator order. Every model's
//     MinContrast, the floor of tau, is above 2^-9
//     (TestMinContrastKeepsRunSumsExact).
//     FuzzFloatComponents runs tau down to 0 on planes of byte samples
//     k/128 of at most 130x48 pixels, whose nonzero |s| are at least
//     2^-7/9 > 2^-11, so multiples of 2^-34: exact there too.
//   - Components are numbered by first appearance in raster order and then
//     stably sorted, which reproduces the old order even between components
//     that tie on the sort key.
func floatComponents(diff *plane, tau float64, simd bool) []component {
	w, h := diff.w, diff.h
	if w == 0 || h == 0 {
		return nil
	}
	sc := floatCCPool.Get().(*floatCCScratch)
	defer floatCCPool.Put(sc)
	mw := maskWords(w)
	sc.abs = slices.Grow(sc.abs[:0], w*h)[:w*h]
	sc.mask = slices.Grow(sc.mask[:0], mw*h)[:mw*h]
	if len(sc.zero) < w {
		sc.zero = make([]float32, w)
	}
	abs, mask := sc.abs, sc.mask
	smoothPlane(abs, mask, diff.v, sc.zero[:w], w, h, float32(tau), simd)
	runs, parent := sc.runs[:0], sc.parent[:0]

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	prevLo, prevHi := 0, 0 // runs[prevLo:prevHi] is the previous row
	for y := 0; y < h; y++ {
		row, words := abs[y*w:(y+1)*w], mask[y*mw:(y+1)*mw]
		rowLo := len(runs)
		pi := prevLo
		// A run starts or ends where a bit differs from the one below it
		// (the previous word's top bit carried in). Edges alternate, start
		// then end; a zero word past the row ends a run at its last column.
		var carry uint64
		x0, open := 0, false
		for i := 0; i <= mw; i++ {
			var word uint64
			if i < mw {
				word = words[i]
			}
			edges := word ^ (word<<1 | carry)
			carry = word >> 63
			for ; edges != 0; edges &= edges - 1 {
				x := i<<6 + bits.TrailingZeros64(edges) - maskOff
				if open = !open; open {
					x0 = x
					continue
				}
				sum := runSum(row[x0:x], simd)
				// Unite with every 4-connected run of the previous row, or
				// open a fresh label.
				for pi < prevHi && int(runs[pi].x1) <= x0 {
					pi++
				}
				label := int32(-1)
				for k := pi; k < prevHi && int(runs[k].x0) < x; k++ {
					root := find(runs[k].label)
					switch {
					case label < 0:
						label = root
					case root < label:
						parent[label] = root
						label = root
					default:
						parent[root] = label
					}
				}
				if label < 0 {
					label = int32(len(parent))
					parent = append(parent, label)
				}
				runs = append(runs, floatRun{x0: int32(x0), x1: int32(x), y: int32(y), label: label, sum: sum})
			}
		}
		prevLo, prevHi = rowLo, len(runs)
	}

	sc.compOf = slices.Grow(sc.compOf[:0], len(parent))[:len(parent)]
	compOf := sc.compOf
	for i := range compOf {
		compOf[i] = -1
	}
	comps := sc.comps[:0]
	for _, r := range runs {
		root := find(r.label)
		ci := compOf[root]
		if ci < 0 {
			ci = int32(len(comps))
			compOf[root] = ci
			comps = append(comps, component{BBox: raster.Rect{MinX: int(r.x0), MinY: int(r.y), MaxX: int(r.x1), MaxY: int(r.y) + 1}})
		}
		c := &comps[ci]
		c.Area += int(r.x1 - r.x0)
		if int(r.x0) < c.BBox.MinX {
			c.BBox.MinX = int(r.x0)
		}
		if int(r.x1) > c.BBox.MaxX {
			c.BBox.MaxX = int(r.x1)
		}
		c.BBox.MaxY = int(r.y) + 1
		c.SumContrast += r.sum
	}

	out := make([]component, len(comps))
	copy(out, comps)
	// Deterministic order: top-left first.
	sortComponents(out)
	sc.runs, sc.parent, sc.comps = runs[:0], parent[:0], comps[:0]
	return out
}

// maskOff is the mask bit of column 0: with column x at bit x+7, each
// eight-column step of smoothPlaneAVX2 from column 1 fills one whole mask
// byte.
const maskOff = 7

// maskWords is the length of a w-column row's mask: enough words for every
// column's bit.
func maskWords(w int) int { return (w + maskOff + 63) / 64 }

// windowInv holds, for cy rows in bounds, the inverse sizes of the 3x3 box's
// two-column (edge) and three-column windows, 1/(2cy) and 1/(3cy): the
// factors the oracle blur3 multiplies by, each one correctly rounded
// division.
var windowInv = func() (inv [4][2]float32) {
	for cy := 1; cy < len(inv); cy++ {
		inv[cy] = [2]float32{1 / float32(2*cy), 1 / float32(3*cy)}
	}
	return inv
}()

// smoothPlane writes the 3x3 box denoise of the w x h plane v as the
// contrast |s| of each smoothed sample s into abs (w*h) and its threshold
// mask into mask (maskWords(w) words per row, every word written): column x
// of a row is masked, bit x+maskOff of the row's words, when s > t ||
// s < -t. zero is a row of w +0 samples, the missing neighbour of an edge
// row. Each column sums its three rows, and each s is the sum of three
// adjacent column sums (two at either end) times the inverse window size
// (windowInv). With simd (raster.SIMD) and a plane of ten or more columns
// smoothPlaneAVX2 computes the whole plane in one call; otherwise, and as
// the oracle it is held to, smoothPlaneGo does.
func smoothPlane(abs []float32, mask []uint64, v, zero []float32, w, h int, t float32, simd bool) {
	if simd && w >= 10 {
		edge, in := windowInv[min(h, 2)], windowInv[3]
		smoothPlaneAVX2(abs, v, zero, mask, w, maskWords(w), edge[0], edge[1], in[0], in[1], t)
		return
	}
	smoothPlaneGo(abs, mask, v, zero, w, h, t)
}

// smoothPlaneGo is smoothPlane's Go body, one row at a time.
func smoothPlaneGo(abs []float32, mask []uint64, v, zero []float32, w, h int, t float32) {
	mw := maskWords(w)
	lo, span := maskRange(t)
	for y := 0; y < h; y++ {
		prev, next, cy := zero, zero, 1
		if y > 0 {
			prev, cy = v[(y-1)*w:y*w], cy+1
		}
		if y+1 < h {
			next, cy = v[(y+1)*w:(y+2)*w], cy+1
		}
		out := abs[y*w : (y+1)*w]
		colSums(out, v[y*w:(y+1)*w], prev, next)
		smoothMaskRow(mask[y*mw:(y+1)*mw], out, cy, lo, span)
	}
}

// smoothMaskRow replaces a row's column sums by the contrasts |s| of its
// smoothed samples, left to right, each sum read before its column is
// overwritten, and writes the row's threshold mask a word at a time: s is
// the sum of three adjacent column sums (two at either end) times the
// inverse window size for cy rows in bounds, or on a one-column row its one
// sum divided by cy. A column's bit, set when the bits u of |s| have
// u-lo < span (maskRange), is the sign of a 64-bit difference, shifted in
// at the top of the word, so the column before is one bit lower; each word
// is then shifted down to put its last column at its own bit. Go compiles
// column 0's a+b with b as the destination, which smoothPlaneAVX2 matches.
//
//go:noinline
func smoothMaskRow(mask []uint64, out []float32, cy int, lo, span uint32) {
	n := len(out)
	if n == 1 {
		u := math.Float32bits(out[0]/float32(cy)) &^ (1 << 31)
		out[0] = math.Float32frombits(u)
		mask[0] = (uint64(u-lo) - uint64(span)) >> 63 << maskOff
		return
	}
	inv2, inv3 := windowInv[cy][0], windowInv[cy][1]
	a, b := out[0], out[1]
	// Column 0's a+b compiles with b first, which smoothPlaneAVX2 mirrors;
	// colSums says what a NaN-payload-only test failure after an edit means.
	u := math.Float32bits((a+b)*inv2) &^ (1 << 31)
	out[0] = math.Float32frombits(u)
	word := (uint64(u-lo) - uint64(span)) & (1 << 63)
	x := 1
	for i := range mask {
		for end := min(64*(i+1)-maskOff, n-1); x < end; x++ {
			c := out[x+1]
			u := math.Float32bits((a+b+c)*inv3) &^ (1 << 31)
			out[x] = math.Float32frombits(u)
			word = word>>1 | (uint64(u-lo)-uint64(span))&(1<<63)
			a, b = b, c
		}
		if i == len(mask)-1 {
			u := math.Float32bits((a+b)*inv2) &^ (1 << 31)
			out[n-1] = math.Float32frombits(u)
			word = word>>1 | (uint64(u-lo)-uint64(span))&(1<<63)
			x = n
		}
		mask[i], word = word>>(63-(x-1+maskOff)&63), 0
	}
}

// colSums sets sums[x] to the column sum (cur+prev)+next of every column.
// Every column sum of smoothPlaneGo comes from this one loop: Go picks per
// statement which operand of a commutative add is the destination, and so
// which of two NaNs the add returns (x86 returns the first source's), so
// sums formed in two places can differ in payload. Out of line, its loop
// keeps one order, cur first, which smoothPlaneAVX2 matches.
//
//go:noinline
func colSums(sums, cur, prev, next []float32) {
	cur, prev, next = cur[:len(sums)], prev[:len(sums)], next[:len(sums)]
	for x := range sums {
		// smoothPlaneAVX2 mirrors the compiled order: cur first. After an
		// edit of this loop or of smoothMaskRow, a TestSmoothPlaneMatchesGoBody
		// failure on NaN payloads alone, with every golden digest unchanged,
		// means the compiled order flipped, not the result: restore the
		// order or re-match the assembly; the test stays as strict as it is.
		sums[x] = cur[x] + prev[x] + next[x]
	}
}

// maskRange returns the bounds of the threshold test on a contrast's bits:
// for every s and t, s > t || s < -t exactly when u-lo < span, unsigned, u
// the bits of |s|. Non-negative floats order as their bits, and NaN's bits
// lie above +Inf's (0x7f800000): a NaN t masks nothing, a negative t every
// non-NaN s, and t >= 0 (either zero) every |s| above it.
func maskRange(t float32) (lo, span uint32) {
	switch {
	case t != t:
		return 0, 0
	case t < 0:
		return 0, 0x7f800001
	}
	lo = math.Float32bits(t)&^(1<<31) + 1
	return lo, 0x7f800001 - lo
}

// runSum is the float64 sum of a run's contrasts: runSumAVX2 with simd,
// else runSumGo, the same additions in the same order. Every partial sum of
// a run is exact (floatComponents), so the order changes no bit there.
func runSum(c []float32, simd bool) float64 {
	if simd {
		return runSumAVX2(c)
	}
	return runSumGo(c)
}

// runSumGo sums c in eight accumulators, element i into accumulator i%8,
// while eight remain, then four more into the first four if four remain,
// reduces them pairwise as runSumAVX2's lanes do, and adds the last up to
// three in order.
func runSumGo(c []float32) float64 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for ; len(c) >= 8; c = c[8:] {
		a0 += float64(c[0])
		a1 += float64(c[1])
		a2 += float64(c[2])
		a3 += float64(c[3])
		a4 += float64(c[4])
		a5 += float64(c[5])
		a6 += float64(c[6])
		a7 += float64(c[7])
	}
	if len(c) >= 4 {
		a0 += float64(c[0])
		a1 += float64(c[1])
		a2 += float64(c[2])
		a3 += float64(c[3])
		c = c[4:]
	}
	s := ((a0 + a4) + (a2 + a6)) + ((a1 + a5) + (a3 + a7))
	for _, v := range c {
		s += float64(v)
	}
	return s
}

func sortComponents(cs []component) {
	// Insertion sort: component counts are tiny, and this avoids pulling
	// sort.Slice closures into the hot path.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lessComponent(&cs[j], &cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func lessComponent(a, b *component) bool {
	if a.BBox.MinY != b.BBox.MinY {
		return a.BBox.MinY < b.BBox.MinY
	}
	if a.BBox.MinX != b.BBox.MinX {
		return a.BBox.MinX < b.BBox.MinX
	}
	return a.Area > b.Area
}
