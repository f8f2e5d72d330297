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

// floatCCScratch pools floatComponents' working set. Everything but the two
// row buffers scales with the number of above-threshold runs, not with the
// patch area.
type floatCCScratch struct {
	srow, zero []float32 // one row's contrasts |s| (smoothRow); a row of +0
	mask       []uint64  // one row's threshold mask (smoothRow)
	bounds     []int32   // one row's run bounds (maskRuns)
	runs       []floatRun
	parent     []int32
	compOf     []int32 // union-find root -> index in comps, -1 = unseen
	comps      []component
}

var floatCCPool = sync.Pool{New: func() any { return &floatCCScratch{} }}

// floatComponents is the float detector's back half — 3x3 box denoise,
// |v| > tau threshold and 4-connected component labelling — fused into one
// pass over the signed difference plane. It replaced three whole-plane
// stages (blur3, absMask and a per-pixel union-find labeller, retained in
// oracle_test.go) and is bit-identical to them:
//
//   - Each row's smoothed samples s are computed as the separable blur did:
//     the vertical 3-tap sum (row + previous + next, in that order), formed
//     inside the horizontal loop, then the horizontal 3-tap sum times the
//     reciprocal of the in-bounds window size (a division on 1-pixel-wide
//     planes, as before). An edge row adds a row of +0 for its missing
//     neighbour, which changes no sum but the sign of a zero, and no zero is
//     above a threshold.
//   - A pixel is masked when s > tau or s < -tau, which is |s| > tau for
//     every s but NaN, which neither form masks. smoothRow keeps |s| and
//     writes the row's mask as bits, eight columns per AVX2 compare, and
//     maskRuns reads the row's runs off the mask words with
//     TrailingZeros64 instead of a branch per pixel.
//   - Runs are united with the overlapping runs of the previous row, so
//     labelling costs O(runs) instead of three passes over w*h labels. No
//     mask, contrast or label plane exists, only one row of each.
//   - Each run sums its pixels' float64(|s|) (runSum, in four interleaved
//     accumulators), and a component's SumContrast is the sum of its runs'
//     sums. That equals the pixel labeller's raster-order sum bit for bit,
//     in whatever order the runs' pixels are summed, because no partial sum
//     rounds: with tau >= 2^-9 every masked |s| is a float32 of at least
//     2^-9, so an integer multiple of 2^-32; plane samples lie in [-1, 1],
//     so |s| <= 1 + 2^-20; and a plane has fewer than 2^20 pixels (at most
//     a model's input, 640²), so every partial sum is a multiple of 2^-32
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
func floatComponents(diff *plane, tau float64) []component {
	w, h := diff.w, diff.h
	if w == 0 || h == 0 {
		return nil
	}
	sc := floatCCPool.Get().(*floatCCScratch)
	defer floatCCPool.Put(sc)
	sc.srow = slices.Grow(sc.srow[:0], w)[:w]
	if len(sc.zero) < w {
		sc.zero = make([]float32, w)
	}
	if len(sc.mask) < maskWords(w) {
		sc.mask = make([]uint64, maskWords(w)) // maskRuns leaves it zero
	}
	srow, zero, mask := sc.srow, sc.zero[:w], sc.mask[:maskWords(w)]
	runs, parent := sc.runs[:0], sc.parent[:0]

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	t := float32(tau)
	prevLo, prevHi := 0, 0 // runs[prevLo:prevHi] is the previous row
	for y := 0; y < h; y++ {
		prev, next, cy := zero, zero, 1
		if y > 0 {
			prev, cy = diff.v[(y-1)*w:y*w], cy+1
		}
		if y+1 < h {
			next, cy = diff.v[(y+1)*w:(y+2)*w], cy+1
		}
		smoothRow(srow, diff.v[y*w:(y+1)*w], prev, next, cy, t, mask, raster.SIMD())
		sc.bounds = maskRuns(sc.bounds[:0], mask)

		rowLo := len(runs)
		pi := prevLo
		for i := 0; i < len(sc.bounds); i += 2 {
			x0, x := int(sc.bounds[i]), int(sc.bounds[i+1])
			sum := runSum(srow[x0:x])
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

// smoothRow writes one row of the 3x3 box denoise of a plane, as the
// contrast |s| of each smoothed sample s, into out and its threshold mask
// into mask: cur is the row, prev and next its neighbours (a row of +0
// beyond an edge) and cy the number of them in bounds. Each column sums its
// three rows, and each s is the sum of three adjacent column sums (two at
// either end) times the inverse window size. Column x is masked, bit
// x+maskOff of mask (maskWords(len(cur)) words, zero on entry), when s > t
// || s < -t. The slices are cut to one length so the loop carries no bounds
// checks. With simd (raster.SIMD; false makes this the Go body alone, the
// oracle) and a row of twelve or more, the loop computes output columns 1
// and 2, the two that read a and b, and smoothRowAVX2 computes and masks
// every later interior column and returns the last two column sums: it
// forms each column sum as the loop forms c, so NaN payloads match the
// loop's, which a's and b's need not. The Go body's columns are masked
// after it, since it stores whole mask words.
func smoothRow(out, cur, prev, next []float32, cy int, t float32, mask []uint64, simd bool) {
	n := len(cur)
	out, prev, next = out[:n], prev[:n], next[:n]
	if n == 1 {
		out[0] = (cur[0] + prev[0] + next[0]) / float32(cy)
		mask[0] |= contrastBit(out, 0, t)
		return
	}
	inv2 := 1 / float32(2*cy)
	inv3 := 1 / float32(3*cy)
	a := cur[0] + prev[0] + next[0]
	b := cur[1] + prev[1] + next[1]
	out[0] = (a + b) * inv2
	x, head := 2, n
	if simd && n >= 12 {
		head = 4
	}
	for ; x < head; x++ {
		c := cur[x] + prev[x] + next[x]
		out[x-1] = (a + b + c) * inv3
		a, b = b, c
	}
	if head < n {
		a, b = smoothRowAVX2(out, cur, prev, next, mask, inv3, t)
		mask[0] |= contrastBit(out, 0, t) | contrastBit(out, 1, t) | contrastBit(out, 2, t)
	} else {
		// Gather each word's bits in a register: read-modify-writes of one
		// word would wait on each other's stores.
		var word uint64
		for x := 0; x < n-1; x++ {
			word |= contrastBit(out, x, t)
			if (x+maskOff)&63 == 63 {
				mask[(x+maskOff)>>6], word = word, 0
			}
		}
		mask[(n-2+maskOff)>>6] |= word
	}
	out[n-1] = (a + b) * inv2
	mask[(n-1+maskOff)>>6] |= contrastBit(out, n-1, t)
}

// maskOff is the mask bit of column 0: with column x at bit x+5, each
// eight-column step of smoothRowAVX2 from column 3 fills one whole mask
// byte.
const maskOff = 5

// maskWords is the length of a w-column row's mask: every column's bit and
// at least one zero bit after the last, so every run of set bits ends
// inside the mask.
func maskWords(w int) int { return (w+maskOff)/64 + 1 }

// contrastBit replaces the smoothed sample s in out[x] by |s| and returns
// column x's mask bit, in place in its word, set when |s| > t, which is
// s > t || s < -t for every s and t (NaN: neither), without a branch.
func contrastBit(out []float32, x int, t float32) uint64 {
	v := math.Float32frombits(math.Float32bits(out[x]) &^ (1 << 31))
	out[x] = v
	var above uint64
	if v > t {
		above = 1
	}
	return above << ((x + maskOff) & 63)
}

// maskRuns appends to dst the bounds x0, x1 of each run [x0, x1) of masked
// columns in a row's mask, in column order. A run starts or ends where a
// bit differs from the one below it (the previous word's top bit carried
// in), so each word's changes are found with TrailingZeros64 alone; mask
// ends in a zero bit, so every run's end is among them. It leaves mask
// zero, ready for the next row.
func maskRuns(dst []int32, mask []uint64) []int32 {
	var carry uint64
	for i, word := range mask {
		mask[i] = 0
		edges := word ^ (word<<1 | carry)
		carry = word >> 63
		for ; edges != 0; edges &= edges - 1 {
			dst = append(dst, int32(i<<6+bits.TrailingZeros64(edges)-maskOff))
		}
	}
	return dst
}

// runSum is the float64 sum of a run's contrasts in four accumulators:
// every partial sum is exact (floatComponents), so the order changes no
// bit. Kept out of line, its loop holds its state in registers; inlined
// into floatComponents, it spilled the loop counter to the stack.
//
//go:noinline
func runSum(c []float32) float64 {
	var s0, s1, s2, s3 float64
	for ; len(c) >= 4; c = c[4:] {
		s0 += float64(c[0])
		s1 += float64(c[1])
		s2 += float64(c[2])
		s3 += float64(c[3])
	}
	for _, v := range c {
		s0 += float64(v)
	}
	return (s0 + s1) + (s2 + s3)
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
