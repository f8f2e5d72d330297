package detect

import (
	"math"
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
// y, carrying a provisional union-find label. Runs are kept in raster order,
// and the contrasts of their pixels sit back to back in the same order.
type floatRun struct {
	x0, x1, y int32
	label     int32
}

// floatCCScratch pools floatComponents' working set. Everything but the two
// row buffers scales with the number of above-threshold runs and pixels, not
// with the patch area.
type floatCCScratch struct {
	vrow, srow []float32 // vertical 3-tap sums and |smoothed| of one row
	contrast   []float32 // |smoothed| of every masked pixel, raster order
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
//   - Each row's smoothed samples are computed exactly as the separable blur
//     did: the vertical 3-tap sum (row + previous + next, in that order),
//     then the horizontal 3-tap sum times the reciprocal of the in-bounds
//     window size (a division on 1-pixel-wide planes, as before).
//   - Above-threshold pixels are gathered into horizontal runs as the row is
//     produced, and runs are united with the overlapping runs of the previous
//     row, so labelling costs O(runs) instead of three passes over w*h
//     labels. No mask, contrast or label plane exists; only the masked
//     pixels' contrasts are kept.
//   - A final pass walks the runs in raster order and adds each pixel's
//     float64(contrast) to its root's SumContrast one at a time. That is the
//     order the pixel labeller added them in, so the float64 sums round
//     identically — summing per run and merging on union would not.
//     Components are numbered by first appearance in the same walk and then
//     stably sorted, which reproduces the old order even between components
//     that tie on the sort key.
func floatComponents(diff *plane, tau float64) []component {
	w, h := diff.w, diff.h
	if w == 0 || h == 0 {
		return nil
	}
	sc := floatCCPool.Get().(*floatCCScratch)
	defer floatCCPool.Put(sc)
	sc.vrow, sc.srow = slices.Grow(sc.vrow[:0], w)[:w], slices.Grow(sc.srow[:0], w)[:w]
	vrow, srow := sc.vrow, sc.srow[:len(sc.vrow)]
	contrast, runs, parent := sc.contrast[:0], sc.runs[:0], sc.parent[:0]

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
		// The row slices are cut to one length so the loops below carry no
		// bounds checks.
		cur := diff.v[y*w : (y+1)*w]
		cy := 1
		switch {
		case y > 0 && y+1 < h:
			cy = 3
			prev, next := diff.v[(y-1)*w : y*w][:len(cur)], diff.v[(y+1)*w : (y+2)*w][:len(cur)]
			for x, v := range cur {
				vrow[x] = v + prev[x] + next[x]
			}
		case y > 0:
			cy = 2
			prev := diff.v[(y-1)*w : y*w][:len(cur)]
			for x, v := range cur {
				vrow[x] = v + prev[x]
			}
		case y+1 < h:
			cy = 2
			next := diff.v[(y+1)*w : (y+2)*w][:len(cur)]
			for x, v := range cur {
				vrow[x] = v + next[x]
			}
		default:
			copy(vrow, cur)
		}
		if w == 1 {
			srow[0] = abs32(vrow[0] / float32(cy))
		} else {
			inv2 := 1 / float32(2*cy)
			inv3 := 1 / float32(3*cy)
			a, b := vrow[0], vrow[1]
			srow[0] = abs32((a + b) * inv2)
			for x, c := range vrow[2:] {
				srow[x+1] = abs32((a + b + c) * inv3)
				a, b = b, c
			}
			srow[w-1] = abs32((a + b) * inv2)
		}

		rowLo := len(runs)
		pi := prevLo
		for x := 0; x < w; x++ {
			if !(srow[x] > t) {
				continue
			}
			x0 := x
			for x++; x < w && srow[x] > t; x++ {
			}
			contrast = append(contrast, srow[x0:x]...)
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
			runs = append(runs, floatRun{x0: int32(x0), x1: int32(x), y: int32(y), label: label})
		}
		prevLo, prevHi = rowLo, len(runs)
	}

	sc.compOf = slices.Grow(sc.compOf[:0], len(parent))[:len(parent)]
	compOf := sc.compOf
	for i := range compOf {
		compOf[i] = -1
	}
	comps := sc.comps[:0]
	off := 0
	for _, r := range runs {
		root := find(r.label)
		ci := compOf[root]
		if ci < 0 {
			ci = int32(len(comps))
			compOf[root] = ci
			comps = append(comps, component{BBox: raster.Rect{MinX: int(r.x0), MinY: int(r.y), MaxX: int(r.x1), MaxY: int(r.y) + 1}})
		}
		c := &comps[ci]
		n := int(r.x1 - r.x0)
		c.Area += n
		if int(r.x0) < c.BBox.MinX {
			c.BBox.MinX = int(r.x0)
		}
		if int(r.x1) > c.BBox.MaxX {
			c.BBox.MaxX = int(r.x1)
		}
		c.BBox.MaxY = int(r.y) + 1
		sum := c.SumContrast
		for _, v := range contrast[off : off+n] {
			sum += float64(v)
		}
		c.SumContrast = sum
		off += n
	}

	out := make([]component, len(comps))
	copy(out, comps)
	// Deterministic order: top-left first.
	sortComponents(out)
	sc.contrast, sc.runs, sc.parent, sc.comps = contrast[:0], runs[:0], parent[:0], comps[:0]
	return out
}

// abs32 is the threshold stage's |v| with the sign bit masked off instead
// of tested: difference planes are mostly zero-mean noise, so a sign branch
// mispredicts on every other pixel. It differs from absMask's
// `if v < 0 { v = -v }` only on -0 (here +0), and no consumer can tell
// those apart: neither exceeds a threshold the other does not, and a
// float64 sum that starts at +0 is the same after adding either.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
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
