package raster

import "sync"

// Scratch-image pooling for the detection hot path. DetectFrameFull and
// the patch path downsample, noise and difference one or two images per
// frame evaluation; at profile-generation scale that is millions of
// short-lived rasters, all dead by the time the frame's detections are
// counted. A sync.Pool of resizable images removes that allocation traffic
// without changing any pixel math: a pooled image is resliced (never
// zeroed), so it is only handed to code that overwrites every sample —
// which DownsampleInto does by construction.

var scratchPool = sync.Pool{New: func() any { return &Image{} }}

// GetScratch returns a w x h image from the pool. The pixel contents are
// UNDEFINED — callers must overwrite every sample (e.g. via DownsampleInto
// or Fill) before reading. Release with PutScratch when done; the image
// must not be retained or read after release.
func GetScratch(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("raster: GetScratch with non-positive size")
	}
	return scratchPool.Get().(*Image).Resize(w, h)
}

// Resize reshapes m to w x h in place, reusing its pixel slab when it is
// large enough, and returns m. Like a fresh GetScratch image the contents
// are UNDEFINED afterwards. It is how a caller that owns a long-lived
// scratch Image (the detector's per-patch scratch) re-dimensions it without
// a pool round trip per buffer.
func (m *Image) Resize(w, h int) *Image {
	m.W, m.H = w, h
	if cap(m.Pix) < w*h {
		m.Pix = make([]float32, w*h)
	} else {
		m.Pix = m.Pix[:w*h]
	}
	return m
}

// PutScratch returns an image obtained from GetScratch to the pool. It is
// safe (a no-op) on nil.
func PutScratch(img *Image) {
	if img == nil {
		return
	}
	scratchPool.Put(img)
}
