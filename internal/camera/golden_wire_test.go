package camera

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// goldenWireSessions pins the complete camera→wire byte stream (every
// Write the camera's Conn issues, concatenated) and the camera.Report of
// three sessions over `small`: the repository benchmark's round-0 session,
// an image-removal session at the model's native input (608, so the
// upsampling path; only 8 of small's frames are person-free, hence 6 frames), and a low-resolution
// session with the noise axis set. The digests and reports were captured on
// the commit before the parallel capture stage, the pooled DEFLATE state
// and the coalesced Send landed, and are NEVER updated by a performance
// change: scheduling and allocation work may not move one byte on the wire
// or one joule in the report.
var goldenWireSessions = []struct {
	name    string
	setting degrade.Setting
	seed    uint64
	sha256  string
	report  string
}{
	{
		"f=0.2 p=160", degrade.Setting{SampleFraction: 0.2, Resolution: 160}, 1000,
		"975b427a2331dbe517c17bb99c19b55ae48fe8c48e9a598fc2519fd994812598",
		"{FramesCaptured:240 FramesTransmitted:240 BytesTransmitted:4110683 CaptureJoules:12.000000000000036 ComputeJoules:0.061439999999999856 TransmitJoules:4.110683}",
	},
	{
		"REMOVE person native", degrade.Setting{SampleFraction: 0.005, Restricted: []scene.Class{scene.Person}}, 7,
		"0b3b5d357d02c3ed9c792c65bb2fb54d2a1c8a4917677f8400ab096050367115",
		"{FramesCaptured:6 FramesTransmitted:6 BytesTransmitted:1604957 CaptureJoules:0.3 ComputeJoules:0.005664768 TransmitJoules:1.604957}",
	},
	{
		"p=96 NOISE 0.05", degrade.Setting{SampleFraction: 0.1, Resolution: 96, NoiseSigma: 0.05}, 3,
		"11554911eac26b7095c8dca8c8aebf2911a0fa6ece613329231b66bcd93fed55",
		"{FramesCaptured:120 FramesTransmitted:120 BytesTransmitted:729215 CaptureJoules:5.999999999999987 ComputeJoules:0.026787840000000028 TransmitJoules:0.729215}",
	},
}

// hashWire is the camera's peer: it hashes what the camera writes and has
// nothing to say back.
type hashWire struct{ h hash.Hash }

func (w hashWire) Write(p []byte) (int, error) { return w.h.Write(p) }
func (w hashWire) Read([]byte) (int, error)    { return 0, io.EOF }

// TestGoldenWireBytes streams each pinned session at GOMAXPROCS 1, 2, 4 and
// 8 and compares the wire digest and the report with the committed ones:
// the frame path's output may not depend on how many workers capture ahead
// of the wire.
func TestGoldenWireBytes(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenWireSessions {
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", g.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				node := &Node{Video: v, Model: m, Setting: g.setting, Energy: DefaultEnergyModel()}
				wire := hashWire{sha256.New()}
				report, err := node.Stream(transport.New(wire), stats.NewStream(g.seed))
				if err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(wire.h.Sum(nil)); got != g.sha256 {
					t.Errorf("wire bytes changed: sha256 %s, pinned %s (%d bytes)", got, g.sha256, report.BytesTransmitted)
				}
				if got := fmt.Sprintf("%+v", report); got != g.report {
					t.Errorf("report changed:\n got %s\nwant %s", got, g.report)
				}
			})
		}
	}
}
