package codec

import (
	"math"
	"testing"
	"testing/quick"

	"smokescreen/internal/dataset"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

func TestRoundTripAnnotations(t *testing.T) {
	v := dataset.MustLoad("small")
	for i := 0; i < 50; i++ {
		want := v.Frame(i).Objects
		block, err := EncodeFrame(&FrameRecord{Index: i, Objects: want})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := DecodeFrame(block)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Index != i {
			t.Fatalf("frame index %d, want %d", fr.Index, i)
		}
		if len(fr.Objects) != len(want) {
			t.Fatalf("frame %d: %d objects, want %d", i, len(fr.Objects), len(want))
		}
		for j := range want {
			got := fr.Objects[j]
			if got.ID != want[j].ID || got.Class != want[j].Class || got.BBox != want[j].BBox || got.Elliptic != want[j].Elliptic {
				t.Fatalf("frame %d object %d: %+v != %+v", i, j, got, want[j])
			}
			if math.Abs(float64(got.Intensity-want[j].Intensity)) > 1.0/65535+1e-9 {
				t.Fatalf("frame %d object %d intensity %v != %v", i, j, got.Intensity, want[j].Intensity)
			}
		}
	}
}

func TestRoundTripRaster(t *testing.T) {
	img := raster.New(64, 48)
	img.GradientV(0.1, 0.9)
	img.Texture(3, 0.1)
	block, err := EncodeFrame(&FrameRecord{Index: 7, Raster: img})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := DecodeFrame(block)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Raster == nil || fr.Raster.W != 64 || fr.Raster.H != 48 {
		t.Fatal("raster lost in round trip")
	}
	for i := range img.Pix {
		if math.Abs(float64(img.Pix[i]-fr.Raster.Pix[i])) > 1.0/255+1e-9 {
			t.Fatalf("pixel %d: %v != %v beyond quantisation", i, img.Pix[i], fr.Raster.Pix[i])
		}
	}
}

func TestEncodedSizeScalesWithResolution(t *testing.T) {
	// The wire cost of a frame must drop super-linearly with resolution —
	// the property the camera bandwidth experiments rely on.
	v := dataset.MustLoad("small")
	native := v.RenderNative(10)
	sizes := map[int]int{}
	for _, p := range []int{320, 160, 64} {
		img := raster.Downsample(native, p, p)
		block, err := EncodeFrame(&FrameRecord{Index: 10, Raster: img})
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = len(block)
	}
	if !(sizes[320] > sizes[160] && sizes[160] > sizes[64]) {
		t.Fatalf("sizes not decreasing: %v", sizes)
	}
	if sizes[64]*4 > sizes[320] {
		t.Fatalf("compression gain too weak: %v", sizes)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	good, err := EncodeFrame(&FrameRecord{Index: 1, Objects: []scene.Object{
		{ID: 1, Class: scene.Car, BBox: raster.RectWH(1, 2, 3, 4), Intensity: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations must error, not panic.
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeFrame(good[:cut]); err == nil {
			// Some prefixes can decode if the cut lands after a complete
			// record; the raster flag byte is the last mandatory byte.
			if cut < len(good)-1 {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	}
	// Corrupt class byte.
	bad := append([]byte(nil), good...)
	bad[2+1] = 99 // index varint (1 byte), count varint (1 byte), id (1 byte) -> class
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("corrupt class accepted")
	}
}

func TestQuantize16RoundTrip(t *testing.T) {
	property := func(raw uint16) bool {
		v := float32(raw) / 65535
		return quantize16(dequantize16(raw)) == raw && math.Abs(float64(dequantize16(quantize16(v))-v)) < 1.0/65535
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if quantize16(-1) != 0 || quantize16(2) != 65535 {
		t.Fatal("quantize16 does not clamp")
	}
}

func TestEncodeDecodePropertyAnnotations(t *testing.T) {
	property := func(ids []uint16, classRaw []uint8) bool {
		n := len(ids)
		if len(classRaw) < n {
			n = len(classRaw)
		}
		if n > 64 {
			n = 64
		}
		objs := make([]scene.Object, n)
		for i := 0; i < n; i++ {
			objs[i] = scene.Object{
				ID:    int(ids[i]),
				Class: scene.Class(classRaw[i] % scene.NumClasses),
				BBox:  raster.RectWH(int(ids[i]%100), int(classRaw[i]), 5, 7),
			}
		}
		block, err := EncodeFrame(&FrameRecord{Index: 3, Objects: objs})
		if err != nil {
			return false
		}
		fr, err := DecodeFrame(block)
		if err != nil || len(fr.Objects) != n {
			return false
		}
		for i := range objs {
			if fr.Objects[i].ID != objs[i].ID || fr.Objects[i].BBox != objs[i].BBox || fr.Objects[i].Class != objs[i].Class {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFrameRejectsTooManyObjects(t *testing.T) {
	objs := make([]scene.Object, maxSaneObjects+1)
	if _, err := EncodeFrame(&FrameRecord{Objects: objs}); err == nil {
		t.Fatal("oversized object list accepted")
	}
}

func TestDecodeFrameRejectsTrailingRasterData(t *testing.T) {
	img := raster.New(8, 8)
	block, err := EncodeFrame(&FrameRecord{Index: 0, Raster: img})
	if err != nil {
		t.Fatal(err)
	}
	// Declare a larger compressed length than the payload really needs by
	// appending junk inside the declared region.
	grown := append([]byte(nil), block...)
	grown = append(grown, 0xde, 0xad)
	if _, err := DecodeFrame(grown); err == nil {
		t.Fatal("trailing data accepted")
	}
}
