package smokescreen_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smokescreen/internal/detect"
	"smokescreen/internal/server"
)

// goldenProfileDigests pins the SaveProfile bytes a default daemon seals
// for a handful of cold requests over `small`: one per kind of pixel work
// the float patch pipeline does (native patches, downsampled patches, a
// blurred view, a face-removal correction set, the composite ladder). The
// digests were captured on the commit before the fused float kernel landed
// and are NEVER updated by a performance change: a kernel that moves one
// bit of one detection moves a column, an err_b and therefore these bytes.
var goldenProfileDigests = []struct {
	name   string
	req    server.GenRequest
	sha256 string
}{
	{"none/MAX", server.GenRequest{Query: "SELECT MAX(count(car)) FROM small"}, "92690c3ee8e0dca38f2922b3f0fb508b3b609988950eb4ccf168f2c074c66e81"},
	{"RESOLUTION 160", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small RESOLUTION 160"}, "e7b1ce5fe6278c1c885e58aa1e58ef9c04e90409f94772d5797eab16efe4fac1"},
	{"BLUR 5", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small BLUR 5"}, "fdd8518736ccfa0df6085b94e3e2e3089e28268c7ef4a1dd3563d543f1179b7e"},
	{"REMOVE face", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small REMOVE face"}, "701c08786736ff76c91491cb38220202a02610a1f25da9d713d3f20b68566720"},
	{"ladder:default", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small", Ladder: "default"}, "77be9a9974927f62e46965fd2a481f84faf3eeba46cf965de8b84d508fe1b8b5"},
}

// TestGoldenProfileBytes generates each pinned request the way
// cmd/smokescreend does at its flag defaults (float rasters, delta off,
// one worker per CPU) from cold detector caches and compares the payload
// digest with the committed one.
func TestGoldenProfileBytes(t *testing.T) {
	gen := &server.SystemGenerator{CorrectionLimit: 0.2}
	for _, g := range goldenProfileDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			detect.ResetCaches()
			req := g.req
			req.Seed, req.Step, req.MaxFraction = 1, 0.02, 0.1
			payload, err := gen.Generate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("SaveProfile bytes changed: sha256 %s, pinned %s (%d bytes)", got, g.sha256, len(payload))
			}
		})
	}
}
