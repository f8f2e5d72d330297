package raster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenImage is a seeded image whose (signed) samples span 48 binary orders of
// magnitude in 7x5 tiles, so the kernels' float64 running sums round: an
// image of same-exponent samples sums exactly and would hide a change in
// accumulation order.
func goldenImage(w, h int) *Image { return signedImage(0x5eed, w, h) }

// signedImage is goldenImage's construction under another sample seed.
func signedImage(seed uint64, w, h int) *Image {
	img := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := noiseUnit(pixelHash(seed, x, y))
			exp := -16 * int(pixelHash(0xb10c, x/7, y/5)%4)
			img.Pix[y*w+x] = float32(math.Ldexp(float64(u), exp))
		}
	}
	return img
}

func pixDigest(img *Image) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenKernelBytes pins the row-block contract. The vertical blur
// re-seeds its window sum at every kernelRowBlock boundary, so the block
// size reaches output bits; the image is 133 rows (four full blocks and a
// partial one). Digests were captured on commit 58a0812, before the worker
// fan-out was removed from forRowBlocks, and must never be updated for a
// refactor: a forRowBlocks that runs one block over the whole image fails
// the blur digest.
func TestGoldenKernelBytes(t *testing.T) {
	src := goldenImage(150, 133)
	cases := []struct {
		name string
		run  func() *Image
		want string
	}{
		{"BoxBlurInto/r=3", func() *Image {
			dst := New(src.W, src.H)
			BoxBlurInto(dst, src, 3)
			return dst
		}, "7c548426c494b209eee180f8a3fabf21cc4b29bedc57a0aef81d81a638648559"},
		{"DownsampleInto/61x101", func() *Image {
			dst := New(61, 101)
			DownsampleInto(dst, src)
			return dst
		}, "98740a0d64a9a7527ccee1d0eefc69b12bf8bbc66a012a7c6616466da5208381"},
		// The near-identity and heavy boxes and a row range of each were
		// captured on 1fd1fcc, before the box kernel tabled its window edges.
		{"DownsampleInto/143x127", func() *Image {
			dst := New(143, 127)
			DownsampleInto(dst, src)
			return dst
		}, "e91af7ccdf4ac2c83ebcd301aeb28c6f55c9c331880f1850d488157a1fb452fb"},
		{"ResampleRowsInto/143x127/40-97", func() *Image {
			dst := New(143, 127)
			ResampleRowsInto(dst, src, 40, 97)
			return dst
		}, "36a9ce64970dc0bf809cb7523a663fb8fe999a91618279087f9020ecdb782bf8"},
		{"DownsampleInto/8x7", func() *Image {
			dst := New(8, 7)
			DownsampleInto(dst, src)
			return dst
		}, "b170bc141efdb7f36ef9999fd7a1df30a8772dfe13ff91b185cbf0e1d627f9b3"},
		{"ResampleRowsInto/8x7/2-5", func() *Image {
			dst := New(8, 7)
			ResampleRowsInto(dst, src, 2, 5)
			return dst
		}, "9c04568d7c29e41ddd3411241e8fc96d2ccaef4635d908faef88277664d699fd"},
		{"MotionBlurHInto/4,2,+3", func() *Image {
			dst := New(140, src.H)
			MotionBlurHInto(dst, src, 4, 2, 3)
			return dst
		}, "4e3feb8c2baa0755c222f919c88f5e3c0be7fd3ea6fc9edece2b1a291baa5841"},
		{"bilinearInto/200x170", func() *Image {
			dst := New(200, 170)
			bilinearInto(dst, src)
			return dst
		}, "b4cf9033e11bfede51de07351ff17eda5c89a27226f35a57864304616719c38b"},
	}
	for _, c := range cases {
		if got := pixDigest(c.run()); got != c.want {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.want)
		}
	}
}
