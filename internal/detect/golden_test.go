package detect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/scene"
)

// TestGoldenDetections pins every detection — class, box and the exact
// float64 bits of its confidence, which is a function of the component's
// SumContrast/Area — over a spread of float-pipeline shapes: upsampled
// patches (608 from a 320-pixel corpus), native and downsampled patches,
// the 640-pixel corpus, the face model's border-difference patches and the
// full-frame path. The digests were captured before the fused kernel
// replaced blur3 → absMask → connectedComponents and must not be updated by
// a performance change: a kernel that reorders one float addition inside a
// component moves a confidence bit here long before it moves a profile.
func TestGoldenDetections(t *testing.T) {
	var (
		blur9 = scene.View{BlurLen: 9}
		quant = scene.View{Levels: 16}
		occl  = scene.View{Occlusion: 0.1}
		noise = scene.View{ExtraNoise: 0.05}
	)
	cases := []struct {
		name, corpus string
		view         scene.View
		m            *Model
		p, frames    int
		full         bool
		want         string
	}{
		{"small/yolo/608", "small", scene.View{}, YOLOv4Sim(), 608, 150, false, "57268b99015db4dc86ce5a163fed04405ad1f659e609fa7305accb7131f72337"},
		{"small/yolo/320", "small", scene.View{}, YOLOv4Sim(), 320, 150, false, "a259957611e466331337dc417866c44dec5b1f5de8ed7a2d03b735f5931fde0f"},
		{"small/yolo/160", "small", scene.View{}, YOLOv4Sim(), 160, 150, false, "5708b30b6e2a73d569ddf6cebb24261bcd6267bf5d6642b2fbccb3d9bc19e883"},
		{"mvi-40775/yolo/160", "mvi-40775", scene.View{}, YOLOv4Sim(), 160, 60, false, "32ef4783bd6195403e3aebd4b043a075b5e9f13a5e9ed61d5b6135a5b01e3024"},
		// Clean rows at the resolutions where the patch area bound skips
		// all (32) or some (96) patches, captured on 6188c6f before it.
		{"small/yolo/32", "small", scene.View{}, YOLOv4Sim(), 32, 1200, false, "e9a15a094703faaea3fdf53af7e04da21717008ab4bb228799712b2fced03c65"},
		{"small/yolo/96", "small", scene.View{}, YOLOv4Sim(), 96, 150, false, "5d0f931dec1056faba5ba38bbebdd52d8b1aa879179a9a313cc02d72a142c011"},
		{"mvi-40775/yolo/32", "mvi-40775", scene.View{}, YOLOv4Sim(), 32, 975, false, "98a2ee0918b752bd231857963b8e3ca51effd77e32f5644e667c0b3f936fb213"},
		{"mvi-40775/yolo/96", "mvi-40775", scene.View{}, YOLOv4Sim(), 96, 300, false, "d57fc1d8284bd4262a423eb4616b1d2f5a263e42ea7926327f1dd0e31ae6d80e"},
		{"small/mtcnn/320", "small", scene.View{}, MTCNNSim(), 320, 400, false, "2f0154f99ad7f3cb89016551998873feed478682fe056d846310268f5f6786db"},
		{"small/yolo/160/full", "small", scene.View{}, YOLOv4Sim(), 160, 40, true, "8e7a9de8d134e027655ae1a0d7b390bdb66eec97fa3989147b925ea99bb516ab"},
		{"small/mtcnn/320/full", "small", scene.View{}, MTCNNSim(), 320, 10, true, "b7a15743ca3d3b88406947f5a6451c8a176b76fd768154908fd52766563a2b80"},
		// Pixel views, captured on 1fd1fcc before a patch's background was
		// resampled in place and its object-free rows left unrendered: the
		// 640-pixel corpus at 608 and at 96 (below 96 the model reports
		// nothing on it, so a smaller input would pin no bits), and the
		// upsampled 320-pixel corpus. A blurred object just outside a patch
		// spills into it, which only the BLUR rows see.
		{"mvi-40775/yolo/608/BLUR 9", "mvi-40775", blur9, YOLOv4Sim(), 608, 300, false, "a8a6e398b9c02a8f55efee0c7802b6f68dd9fb2a5231223b83b6e86e18e96727"},
		{"mvi-40775/yolo/96/BLUR 9", "mvi-40775", blur9, YOLOv4Sim(), 96, 300, false, "f1596be95b4e3d43fe0b3e0aeca350cc095e8e267440a315a937f7bc146ef837"},
		{"small/yolo/608/BLUR 9", "small", blur9, YOLOv4Sim(), 608, 150, false, "79d329a26cfae03476f85f8798d6f8b0f845039a6bf4d3415ed5ec2e5386c3bc"},
		{"mvi-40775/yolo/608/QUANTIZE 16", "mvi-40775", quant, YOLOv4Sim(), 608, 300, false, "9b000b463295571845572742982bd883dd68d2d277555e64a97765a4ad3f9d75"},
		{"mvi-40775/yolo/96/QUANTIZE 16", "mvi-40775", quant, YOLOv4Sim(), 96, 300, false, "43fe2316dd1e19fd70cc695ba609836f05f293c0c59461f8cea6bc126115b504"},
		{"small/yolo/608/QUANTIZE 16", "small", quant, YOLOv4Sim(), 608, 150, false, "e3ea8d8c0c92f0d9a1bb4914d59d2efb67032b4a045aae5f29cfcbd4cd24c915"},
		{"mvi-40775/yolo/608/OCCLUDE 0.1", "mvi-40775", occl, YOLOv4Sim(), 608, 300, false, "2f2a9fc4ba8f80fd74599d8c8e96c9ba0cbae4e54038f160410353e0ed301b33"},
		{"mvi-40775/yolo/96/OCCLUDE 0.1", "mvi-40775", occl, YOLOv4Sim(), 96, 300, false, "54a99abb31455d712315d6b5ded19624740e267bdeb817db52efbc4df152bf0a"},
		{"small/yolo/608/OCCLUDE 0.1", "small", occl, YOLOv4Sim(), 608, 150, false, "ed27f1ae82845e2d0289aee6ad6cf747e372aac418268f645c5e43f0e8a36178"},
		// Extra sensor noise, captured on 91efcdf before the noise row kernel
		// and the run-sum labeller: the axis with the most noise runs and
		// components per patch.
		{"small/yolo/608/NOISE 0.05", "small", noise, YOLOv4Sim(), 608, 150, false, "c22c187c5d9aca564192822b306185b3f356f7b2f8aa7374955f7f7acded2d29"},
		{"mvi-40775/yolo/608/NOISE 0.05", "mvi-40775", noise, YOLOv4Sim(), 608, 300, false, "aa4cb4bb7092ca7f6a6afccc9d0ae89de6c2f01d537e2213463de7952169da0a"},
		{"mvi-40775/yolo/96/NOISE 0.05", "mvi-40775", noise, YOLOv4Sim(), 96, 300, false, "7fba05474c23fd644c68f46ce4653b386a99c9b308f08f7eb86eb7661908b738"},
	}
	tieFrames := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			v := dataset.MustLoad(c.corpus).WithView(c.view)
			h := sha256.New()
			var buf [8]byte
			put := func(x uint64) {
				binary.LittleEndian.PutUint64(buf[:], x)
				h.Write(buf[:])
			}
			detectCase := func(i int) []Detection {
				if c.full {
					return c.m.DetectFrameFull(v, i, c.p)
				}
				return c.m.DetectFrame(v, i, c.p)
			}
			n := 0
			for i := 0; i < c.frames; i++ {
				ds := detectCase(i)
				// The digests were captured when postProcess still emitted
				// (MinY, MinX, Class) ties in map order, so they hash a
				// total order; the emitted order is pinned below.
				recs := make([][6]uint64, len(ds))
				for k, d := range ds {
					recs[k] = [6]uint64{uint64(int64(d.BBox.MinY)), uint64(int64(d.BBox.MinX)), uint64(int64(d.BBox.MaxY)),
						uint64(int64(d.BBox.MaxX)), uint64(d.Class), math.Float64bits(d.Confidence)}
				}
				sort.Slice(recs, func(a, b int) bool {
					for k := range recs[a] {
						if recs[a][k] != recs[b][k] {
							return recs[a][k] < recs[b][k]
						}
					}
					return false
				})
				put(uint64(len(ds)))
				for _, r := range recs {
					for _, x := range r {
						put(x)
					}
				}
				n += len(ds)
				// The emitted sequence itself is a pure function of the
				// inputs. sortDetections fixes it except between detections
				// that tie on its key, so those frames are the ones repeated.
				if !hasSortTie(ds) {
					continue
				}
				tieFrames++
				for rep := 0; rep < 50; rep++ {
					if again := detectCase(i); !reflect.DeepEqual(again, ds) {
						t.Fatalf("frame %d, repetition %d: emitted %+v, first run %+v", i, rep, again, ds)
					}
				}
			}
			// YOLOv4 reports nothing at p = 32 on either corpus (every patch
			// is below the area bound); those rows pin that, frame by frame.
			if n == 0 && c.p != 32 {
				t.Fatal("no detections hashed: the case pins nothing")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("detections changed: sha256 %s, pinned %s (%d detections)", got, c.want, n)
			}
		})
	}
	if tieFrames == 0 {
		t.Error("no frame ties on the sort key: the emitted-order repetitions pin nothing")
	}
}

// hasSortTie reports whether two adjacent detections tie on
// sortDetections' key.
func hasSortTie(ds []Detection) bool {
	for k := 1; k < len(ds); k++ {
		if !lessDetection(&ds[k-1], &ds[k]) {
			return true
		}
	}
	return false
}
