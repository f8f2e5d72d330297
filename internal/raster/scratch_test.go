package raster

import "testing"

func scratchTestImage(w, h int) *Image {
	m := New(w, h)
	for i := range m.Pix {
		m.Pix[i] = float32((i*2654435761)%997) / 997
	}
	return m
}

func TestGetScratchDimensionsAndReuse(t *testing.T) {
	img := GetScratch(8, 6)
	if img.W != 8 || img.H != 6 || len(img.Pix) != 48 {
		t.Fatalf("scratch image has wrong shape: %dx%d len %d", img.W, img.H, len(img.Pix))
	}
	fill(img, 0.5)
	PutScratch(img)

	// A smaller request may reuse the same backing array; the reslice must
	// still expose exactly w*h samples.
	small := GetScratch(2, 3)
	if small.W != 2 || small.H != 3 || len(small.Pix) != 6 {
		t.Fatalf("reused scratch has wrong shape: %dx%d len %d", small.W, small.H, len(small.Pix))
	}
	PutScratch(small)
	PutScratch(nil) // must not panic
}

func TestGetScratchInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive size")
		}
	}()
	GetScratch(0, 5)
}

func TestDownsampleIntoMatchesDownsample(t *testing.T) {
	src := scratchTestImage(64, 48)
	cases := []struct{ w, h int }{
		{16, 12},  // box downsample
		{64, 48},  // same size (copy)
		{96, 80},  // bilinear upsample
		{31, 17},  // non-integral ratio
		{100, 10}, // mixed: upsample x, downsample y falls to bilinear
	}
	for _, c := range cases {
		want := Downsample(src, c.w, c.h)
		dst := GetScratch(c.w, c.h)
		fill(dst, 1) // stale contents must be fully overwritten
		DownsampleInto(dst, src)
		for i := range want.Pix {
			if dst.Pix[i] != want.Pix[i] {
				t.Fatalf("%dx%d: pixel %d differs: %v vs %v", c.w, c.h, i, dst.Pix[i], want.Pix[i])
			}
		}
		PutScratch(dst)
	}
}

func TestBoxBlurIntoMatchesBoxBlur(t *testing.T) {
	src := scratchTestImage(40, 30)
	for _, r := range []int{0, 1, 3} {
		want := boxBlur(src, r)
		dst := GetScratch(src.W, src.H)
		fill(dst, 0.25)
		BoxBlurInto(dst, src, r)
		for i := range want.Pix {
			if dst.Pix[i] != want.Pix[i] {
				t.Fatalf("r=%d: pixel %d differs: %v vs %v", r, i, dst.Pix[i], want.Pix[i])
			}
		}
		PutScratch(dst)
	}
}

func TestBoxBlurIntoSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for size mismatch")
		}
	}()
	BoxBlurInto(New(3, 3), New(4, 4), 1)
}
