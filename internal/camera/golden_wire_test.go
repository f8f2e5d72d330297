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
// camera sessions. Over `small`: the repository benchmark's round-0 session, an
// image-removal session at the model's native input (608, so the
// upsampling path; only 8 of small's frames are person-free, hence 6
// frames), and a low-resolution session. Those three digests and reports
// were captured on the commit before the parallel capture stage, the pooled
// DEFLATE state and the coalesced Send landed, and are NEVER updated by a
// performance change: scheduling and allocation work may not move one byte
// on the wire or one joule in the report.
//
// The low-resolution digest was captured with NoiseSigma 0.05 in the
// setting, at a time the camera ignored every pixel axis: it is the digest
// of the clean f=0.1 p=96 session and is pinned as that. The NOISE row's
// digest is the one digest captured later, on the commit that routed the
// camera through degrade.EffectiveVideo and so made the clause mean
// something on the wire.
//
// The last three rows were captured on the commit before the camera started
// each frame from the session's downsampled background and resampled only
// the rows objects touch: every pixel axis at once on `small`, and the dense
// 640-pixel `mvi-40775` at a non-integer downsample (608) and a coarse one
// (96).
var goldenWireSessions = []struct {
	name    string
	corpus  string
	setting degrade.Setting
	seed    uint64
	sha256  string
	report  string
}{
	{
		"f=0.2 p=160", "small", degrade.Setting{SampleFraction: 0.2, Resolution: 160}, 1000,
		"975b427a2331dbe517c17bb99c19b55ae48fe8c48e9a598fc2519fd994812598",
		"{FramesCaptured:240 FramesTransmitted:240 BytesTransmitted:4110683 CaptureJoules:12.000000000000036 ComputeJoules:0.061439999999999856 TransmitJoules:4.110683}",
	},
	{
		"REMOVE person native", "small", degrade.Setting{SampleFraction: 0.005, Restricted: []scene.Class{scene.Person}}, 7,
		"0b3b5d357d02c3ed9c792c65bb2fb54d2a1c8a4917677f8400ab096050367115",
		"{FramesCaptured:6 FramesTransmitted:6 BytesTransmitted:1604957 CaptureJoules:0.3 ComputeJoules:0.005664768 TransmitJoules:1.604957}",
	},
	{
		"f=0.1 p=96", "small", degrade.Setting{SampleFraction: 0.1, Resolution: 96}, 3,
		"11554911eac26b7095c8dca8c8aebf2911a0fa6ece613329231b66bcd93fed55",
		"{FramesCaptured:120 FramesTransmitted:120 BytesTransmitted:729215 CaptureJoules:5.999999999999987 ComputeJoules:0.026787840000000028 TransmitJoules:0.729215}",
	},
	{
		"p=96 NOISE 0.05", "small", degrade.Setting{SampleFraction: 0.1, Resolution: 96, NoiseSigma: 0.05}, 3,
		"685f8ea2c593b06e63990183d0b691d5018ead0b4cc39e4a4be52e16a8200545",
		"{FramesCaptured:120 FramesTransmitted:120 BytesTransmitted:873509 CaptureJoules:5.999999999999987 ComputeJoules:0.026787840000000028 TransmitJoules:0.873509}",
	},
	{
		"p=160 BLUR 9 QUANTIZE 8 OCCLUDE 0.3", "small", degrade.Setting{SampleFraction: 0.05, Resolution: 160, MotionBlur: 9, Quantize: 8, Occlusion: 0.3}, 11,
		"d99011a4ec9cb4e01dd284f58745b2d6ec4332d5562d6f7554eec6575e531f16",
		"{FramesCaptured:60 FramesTransmitted:60 BytesTransmitted:955548 CaptureJoules:2.9999999999999973 ComputeJoules:0.015359999999999983 TransmitJoules:0.955548}",
	},
	{
		"mvi-40775 p=608", "mvi-40775", degrade.Setting{SampleFraction: 0.05, Resolution: 608}, 13,
		"1c3cbd04f93b44b5eeed6aae695beb7c5e291641756e8dfb4149b0531449be02",
		"{FramesCaptured:49 FramesTransmitted:49 BytesTransmitted:11093137 CaptureJoules:2.4499999999999993 ComputeJoules:0.0763678720000001 TransmitJoules:11.093136999999999}",
	},
	{
		"mvi-40775 p=96", "mvi-40775", degrade.Setting{SampleFraction: 0.1, Resolution: 96}, 17,
		"aa10324b4ebe53d6bd0b62612ba5f36ac51eb0b68c9cc4bbe38fc475c5dcf8c3",
		"{FramesCaptured:98 FramesTransmitted:98 BytesTransmitted:553391 CaptureJoules:4.899999999999991 ComputeJoules:0.08208793600000006 TransmitJoules:0.553391}",
	},
}

// hashWire is the camera's peer: it hashes what the camera writes and has
// nothing to say back.
type hashWire struct{ h hash.Hash }

func (w hashWire) Write(p []byte) (int, error) { return w.h.Write(p) }
func (w hashWire) Read([]byte) (int, error)    { return 0, io.EOF }

// wireDigest streams one session into a hashing peer.
func wireDigest(t *testing.T, node *Node, seed uint64) (string, Report) {
	t.Helper()
	wire := hashWire{sha256.New()}
	report, err := node.Stream(transport.New(wire), stats.NewStream(seed))
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(wire.h.Sum(nil)), report
}

// TestGoldenWireBytes streams each pinned session at GOMAXPROCS 1, 2, 4 and
// 8 and compares the wire digest and the report with the committed ones:
// the frame path's output may not depend on how many workers capture ahead
// of the wire.
func TestGoldenWireBytes(t *testing.T) {
	m := detect.YOLOv4Sim()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range goldenWireSessions {
		v := dataset.MustLoad(g.corpus)
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", g.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				node := &Node{Video: v, Model: m, Setting: g.setting, Energy: DefaultEnergyModel()}
				digest, report := wireDigest(t, node, g.seed)
				if digest != g.sha256 {
					t.Errorf("wire bytes changed: sha256 %s, pinned %s (%d bytes)", digest, g.sha256, report.BytesTransmitted)
				}
				if got := fmt.Sprintf("%+v", report); got != g.report {
					t.Errorf("report changed:\n got %s\nwant %s", got, g.report)
				}
			})
		}
	}
}

// TestPixelAxesReachTheWire: every pixel axis of the registry changes what
// the camera transmits. Same seed, fraction and resolution means the same
// sampled frames, so any difference in the bytes is the axis itself.
func TestPixelAxesReachTheWire(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	clean := degrade.Setting{SampleFraction: 0.02, Resolution: 160}
	cleanDigest, cleanReport := wireDigest(t, &Node{Video: v, Model: m, Setting: clean, Energy: DefaultEnergyModel()}, 5)
	for _, setting := range []degrade.Setting{
		{SampleFraction: 0.02, Resolution: 160, NoiseSigma: 0.3},
		{SampleFraction: 0.02, Resolution: 160, MotionBlur: 9},
		{SampleFraction: 0.02, Resolution: 160, Quantize: 8},
		{SampleFraction: 0.02, Resolution: 160, Occlusion: 0.3},
	} {
		digest, report := wireDigest(t, &Node{Video: v, Model: m, Setting: setting, Energy: DefaultEnergyModel()}, 5)
		if report.FramesTransmitted != cleanReport.FramesTransmitted {
			t.Fatalf("%s: %d frames transmitted, the clean session %d", setting, report.FramesTransmitted, cleanReport.FramesTransmitted)
		}
		if digest == cleanDigest {
			t.Errorf("%s: the wire carries the clean session's bytes", setting)
		}
	}
}
