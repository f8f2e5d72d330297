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
	cases := []struct {
		name, corpus string
		m            *Model
		p, frames    int
		full         bool
		want         string
	}{
		{"small/yolo/608", "small", YOLOv4Sim(), 608, 150, false, "57268b99015db4dc86ce5a163fed04405ad1f659e609fa7305accb7131f72337"},
		{"small/yolo/320", "small", YOLOv4Sim(), 320, 150, false, "a259957611e466331337dc417866c44dec5b1f5de8ed7a2d03b735f5931fde0f"},
		{"small/yolo/160", "small", YOLOv4Sim(), 160, 150, false, "5708b30b6e2a73d569ddf6cebb24261bcd6267bf5d6642b2fbccb3d9bc19e883"},
		{"mvi-40775/yolo/160", "mvi-40775", YOLOv4Sim(), 160, 60, false, "32ef4783bd6195403e3aebd4b043a075b5e9f13a5e9ed61d5b6135a5b01e3024"},
		{"small/mtcnn/320", "small", MTCNNSim(), 320, 400, false, "2f0154f99ad7f3cb89016551998873feed478682fe056d846310268f5f6786db"},
		{"small/yolo/160/full", "small", YOLOv4Sim(), 160, 40, true, "8e7a9de8d134e027655ae1a0d7b390bdb66eec97fa3989147b925ea99bb516ab"},
		{"small/mtcnn/320/full", "small", MTCNNSim(), 320, 10, true, "b7a15743ca3d3b88406947f5a6451c8a176b76fd768154908fd52766563a2b80"},
	}
	tieFrames := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			v := dataset.MustLoad(c.corpus)
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
			if n == 0 {
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
