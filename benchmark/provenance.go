package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
)

// provenance is what makes reports from different commits and machines
// comparable: which code ran, on what, and with which process-wide pipeline
// defaults live (read back through the product's getters, never set here).
type provenance struct {
	Commit            string `json:"commit"`
	GoVersion         string `json:"go_version"`
	NumCPU            int    `json:"nproc"`
	GOMAXPROCS        int    `json:"gomaxprocs"`
	QuantizedRasters  bool   `json:"quantized_rasters"`
	DeltaDetect       string `json:"delta_detect"`
	OutputSharing     bool   `json:"output_sharing"`
	RenderCacheBudget int64  `json:"render_cache_budget"`
}

func readProvenance(root string) provenance {
	return provenance{
		Commit:            gitCommit(root),
		GoVersion:         runtime.Version(),
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		QuantizedRasters:  detect.Quantized(),
		DeltaDetect:       detect.DeltaDetectMode().String(),
		OutputSharing:     outputs.Sharing(),
		RenderCacheBudget: detect.RenderCacheBudget(),
	}
}

// gitCommit reads HEAD straight from .git, without running git; the
// driver's checkout is not a repository and reads "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// opDigest is the SHA-256 of the first digestRounds rounds of the op list:
// equal digests mean two runs sent the program the same inputs in the same
// order.
func opDigest(w workload) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for r := 0; r < digestRounds; r++ {
		if err := enc.Encode(w.opList(r)); err != nil {
			panic(err) // op lists are plain structs; failing to encode one is a harness bug
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
