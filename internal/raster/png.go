package raster

import (
	"image"
	"image/color"
	"image/png"
	"io"
)

// EncodePNG writes the grayscale image as an 8-bit PNG. It exists for
// human inspection of rendered scenes and degraded frames (cmd/videogen
// -png); the analytical pipeline never goes through PNG.
func EncodePNG(w io.Writer, m *Image) error {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		row := y * m.W
		for x := 0; x < m.W; x++ {
			v := m.Pix[row+x]
			img.SetGray(x, y, color.Gray{Y: uint8(clamp01(v)*255 + 0.5)})
		}
	}
	return png.Encode(w, img)
}

// DrawBox strokes a one-pixel rectangle outline with intensity v — used to
// overlay detections on exported previews.
func (m *Image) DrawBox(r Rect, v float32) {
	for x := r.MinX; x < r.MaxX; x++ {
		m.Set(x, r.MinY, v)
		m.Set(x, r.MaxY-1, v)
	}
	for y := r.MinY; y < r.MaxY; y++ {
		m.Set(r.MinX, y, v)
		m.Set(r.MaxX-1, y, v)
	}
}
