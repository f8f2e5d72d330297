// Package raster implements the grayscale image substrate that the
// simulated detectors operate on. Frames in this repository are not mock
// objects: scenes are rendered to pixel grids, degraded by real box-filter
// downsampling and additive noise, and then detected by an actual
// image-processing pipeline (thresholding, connected components). That is
// what makes the paper's non-random interventions — reduced resolution in
// particular — produce genuinely systematic, direction-biased detector
// error instead of hand-tuned error curves.
package raster

import "fmt"

// Image is a dense grayscale image with float32 samples in [0, 1].
// Pixels are stored row-major; (0,0) is the top-left corner.
type Image struct {
	W, H int
	Pix  []float32
}

// New allocates a zeroed (black) image of the given size. It panics on
// non-positive dimensions.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the sample at (x, y). Out-of-bounds reads return 0, which
// keeps filter kernels simple at image edges.
func (m *Image) At(x, y int) float32 {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return 0
	}
	return m.Pix[y*m.W+x]
}

// Set writes the sample at (x, y), clamping the value into [0, 1].
// Out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, v float32) {
	if x < 0 || y < 0 || x >= m.W || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = clamp01(v)
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Rect is an axis-aligned integer rectangle. Min is inclusive, Max is
// exclusive, matching image.Rectangle conventions.
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// RectWH constructs a rectangle from origin and size.
func RectWH(x, y, w, h int) Rect {
	return Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// W returns the rectangle width.
func (r Rect) W() int { return r.MaxX - r.MinX }

// H returns the rectangle height.
func (r Rect) H() int { return r.MaxY - r.MinY }

// Area returns the rectangle area, zero for empty rectangles.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// Intersect returns the intersection of two rectangles.
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		MinX: max(r.MinX, o.MinX),
		MinY: max(r.MinY, o.MinY),
		MaxX: min(r.MaxX, o.MaxX),
		MaxY: min(r.MaxY, o.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle containing both rectangles.
// Empty operands are ignored.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		MinX: min(r.MinX, o.MinX),
		MinY: min(r.MinY, o.MinY),
		MaxX: max(r.MaxX, o.MaxX),
		MaxY: max(r.MaxY, o.MaxY),
	}
}

// IoU returns the intersection-over-union of two rectangles, the overlap
// measure used by the detector's non-maximum suppression.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	return float64(inter) / float64(union)
}

// Center returns the rectangle's center point in continuous coordinates.
func (r Rect) Center() (float64, float64) {
	return float64(r.MinX+r.MaxX) / 2, float64(r.MinY+r.MaxY) / 2
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
