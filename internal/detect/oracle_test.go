package detect

import (
	"sync"

	"smokescreen/internal/raster"
)

// The float detector's historical back half, retained verbatim as the
// oracle floatComponents is compared against with == / DeepEqual
// (fused_test.go): a separable 3x3 blur into a full plane, a threshold
// into full mask and contrast planes, and a per-pixel two-pass union-find
// labeller over them. Test-only; production code has exactly one float
// back half.

// maskScratch carries the threshold mask and contrast buffers consumed by
// connectedComponents and the confidence model; contrast values are copied
// into component sums before release.
type maskScratch struct {
	mask     []bool
	contrast []float32
}

var maskPool = sync.Pool{New: func() any { return &maskScratch{} }}

func getMaskScratch(n int) *maskScratch {
	s := maskPool.Get().(*maskScratch)
	if cap(s.mask) < n {
		s.mask = make([]bool, n)
		s.contrast = make([]float32, n)
	} else {
		s.mask = s.mask[:n]
		s.contrast = s.contrast[:n]
	}
	return s
}

func putMaskScratch(s *maskScratch) {
	if s != nil {
		maskPool.Put(s)
	}
}

// blur3 returns the plane smoothed by a 3x3 box filter (edge pixels
// average over their in-bounds neighbourhood). A 3x3 average divides
// uncorrelated noise sigma by 3 while leaving the interior of objects
// larger than ~3 pixels intact — the detector's denoising stage.
//
// Separable form: a vertical 3-tap pass into a pooled scratch plane, then a
// horizontal 3-tap pass — 6 adds per pixel instead of the naive window
// scan's 9 (kept below as blur3Naive, the property-test oracle).
func (p *plane) blur3() *plane {
	w, h := p.w, p.h
	out := getPlane(w, h)
	if w == 0 || h == 0 {
		return out
	}
	vs := getPlane(w, h)
	for y := 0; y < h; y++ {
		row := vs.v[y*w : (y+1)*w]
		copy(row, p.v[y*w:(y+1)*w])
		if y > 0 {
			prev := p.v[(y-1)*w : y*w]
			for x := range row {
				row[x] += prev[x]
			}
		}
		if y+1 < h {
			next := p.v[(y+1)*w : (y+2)*w]
			for x := range row {
				row[x] += next[x]
			}
		}
	}
	for y := 0; y < h; y++ {
		cy := 3
		if y == 0 {
			cy--
		}
		if y == h-1 {
			cy--
		}
		inv2 := 1 / float32(2*cy)
		inv3 := 1 / float32(3*cy)
		vrow := vs.v[y*w : (y+1)*w]
		orow := out.v[y*w : (y+1)*w]
		if w == 1 {
			orow[0] = vrow[0] / float32(cy)
			continue
		}
		orow[0] = (vrow[0] + vrow[1]) * inv2
		for x := 1; x < w-1; x++ {
			orow[x] = (vrow[x-1] + vrow[x] + vrow[x+1]) * inv3
		}
		orow[w-1] = (vrow[w-2] + vrow[w-1]) * inv2
	}
	putPlane(vs)
	return out
}

// blur3Naive is the direct 3x3 window scan retained as the oracle blur3 is
// property-tested against (1e-5 per sample). Test-only.
func (p *plane) blur3Naive() *plane {
	out := getPlane(p.w, p.h)
	for y := 0; y < p.h; y++ {
		y0, y1 := y-1, y+2
		if y0 < 0 {
			y0 = 0
		}
		if y1 > p.h {
			y1 = p.h
		}
		for x := 0; x < p.w; x++ {
			x0, x1 := x-1, x+2
			if x0 < 0 {
				x0 = 0
			}
			if x1 > p.w {
				x1 = p.w
			}
			var sum float32
			for yy := y0; yy < y1; yy++ {
				row := yy * p.w
				for xx := x0; xx < x1; xx++ {
					sum += p.v[row+xx]
				}
			}
			out.v[y*p.w+x] = sum / float32((y1-y0)*(x1-x0))
		}
	}
	return out
}

// absMask thresholds |p| > tau, returning a pooled scratch holding the
// mask and the absolute contrast plane the confidence model consumes.
// Release with putMaskScratch once components are extracted.
func (p *plane) absMask(tau float64) *maskScratch {
	s := getMaskScratch(len(p.v))
	t := float32(tau)
	for i, v := range p.v {
		if v < 0 {
			v = -v
		}
		s.contrast[i] = v
		s.mask[i] = v > t
	}
	return s
}

// connectedComponents labels the 4-connected regions of mask (length w*h,
// row-major) and returns one component per region, with contrast sums taken
// from the parallel contrast slice. Two-pass union-find with path halving.
// ccScratch pools the label buffer of connectedComponents: one w*h int32
// slab per frame evaluation, dead as soon as the components are extracted.
type ccScratch struct {
	labels []int32
	parent []int32
	// compOf maps a union-find root to its index in comps (-1 = unseen);
	// both are resized per call and replace the per-frame map the second
	// pass used to allocate (the hottest allocation in the profile).
	compOf []int32
	comps  []component
}

var ccPool = sync.Pool{New: func() any { return &ccScratch{} }}

func connectedComponents(mask []bool, contrast []float32, w, h int) []component {
	if len(mask) != w*h || len(contrast) != w*h {
		panic("detect: connectedComponents size mismatch")
	}
	cc := ccPool.Get().(*ccScratch)
	defer ccPool.Put(cc)
	if cap(cc.labels) < w*h {
		cc.labels = make([]int32, w*h)
	} else {
		cc.labels = cc.labels[:w*h]
	}
	labels := cc.labels
	for i := range labels {
		labels[i] = -1
	}
	parent := cc.parent[:0]
	defer func() { cc.parent = parent[:0] }()

	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) int32 {
		ra, rb := find(a), find(b)
		if ra == rb {
			return ra
		}
		if ra < rb {
			parent[rb] = ra
			return ra
		}
		parent[ra] = rb
		return rb
	}

	// First pass: provisional labels.
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			if !mask[i] {
				continue
			}
			var left, up int32 = -1, -1
			if x > 0 && mask[i-1] {
				left = labels[i-1]
			}
			if y > 0 && mask[i-w] {
				up = labels[i-w]
			}
			switch {
			case left < 0 && up < 0:
				l := int32(len(parent))
				parent = append(parent, l)
				labels[i] = l
			case left >= 0 && up >= 0:
				labels[i] = union(left, up)
			case left >= 0:
				labels[i] = left
			default:
				labels[i] = up
			}
		}
	}

	// Second pass: accumulate per-root statistics into pooled slabs instead
	// of a per-call map — root indices are dense (< len(parent)), so a
	// slice lookup replaces the map's hash-and-probe on every masked pixel.
	if cap(cc.compOf) < len(parent) {
		cc.compOf = make([]int32, len(parent))
	}
	compOf := cc.compOf[:len(parent)]
	for i := range compOf {
		compOf[i] = -1
	}
	comps := cc.comps[:0]
	defer func() { cc.comps = comps[:0] }()
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			if !mask[i] {
				continue
			}
			root := find(labels[i])
			ci := compOf[root]
			if ci < 0 {
				ci = int32(len(comps))
				compOf[root] = ci
				comps = append(comps, component{BBox: raster.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}})
			}
			c := &comps[ci]
			c.Area++
			c.SumContrast += float64(contrast[i])
			if x < c.BBox.MinX {
				c.BBox.MinX = x
			}
			if x+1 > c.BBox.MaxX {
				c.BBox.MaxX = x + 1
			}
			if y < c.BBox.MinY {
				c.BBox.MinY = y
			}
			if y+1 > c.BBox.MaxY {
				c.BBox.MaxY = y + 1
			}
		}
	}

	out := make([]component, len(comps))
	copy(out, comps)
	// Deterministic order: top-left first.
	sortComponents(out)
	return out
}
