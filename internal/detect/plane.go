package detect

import (
	"sync"

	"smokescreen/internal/raster"
)

// plane is a signed float32 pixel buffer. The detector works on the signed
// difference between a frame and the static background, which can be
// negative (dark objects on bright pavement), so raster.Image's clamped
// [0,1] samples are not usable here.
type plane struct {
	w, h int
	v    []float32
}

// Planes live for one frame evaluation each — millions of them over a
// profile run — so the hot paths draw them from a pool. Pooled buffers are
// resliced, never zeroed: every producer (diffPlane, diffScalar, the patch
// scratch's noisy difference) overwrites all samples.
var planePool = sync.Pool{New: func() any { return &plane{} }}

func getPlane(w, h int) *plane {
	p := planePool.Get().(*plane)
	p.resize(w, h)
	return p
}

// resize reshapes the plane in place, reusing its slab when large enough;
// contents are undefined afterwards.
func (p *plane) resize(w, h int) {
	p.w, p.h = w, h
	if cap(p.v) < w*h {
		p.v = make([]float32, w*h)
	} else {
		p.v = p.v[:w*h]
	}
}

func putPlane(p *plane) {
	if p != nil {
		planePool.Put(p)
	}
}

// diffPlane returns a - b elementwise in a pooled plane. Both images must
// share dimensions. Release with putPlane.
func diffPlane(a, b *raster.Image) *plane {
	if a.W != b.W || a.H != b.H {
		panic("detect: diffPlane size mismatch")
	}
	p := getPlane(a.W, a.H)
	for i := range a.Pix {
		p.v[i] = a.Pix[i] - b.Pix[i]
	}
	return p
}

// setDiffScalar resizes p to img's dimensions and fills it with img - c.
func (p *plane) setDiffScalar(img *raster.Image, c float32) {
	p.resize(img.W, img.H)
	for i, v := range img.Pix {
		p.v[i] = v - c
	}
}
