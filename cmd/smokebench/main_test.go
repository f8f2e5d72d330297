package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// An explicit non-positive -trials is an error, not a request for the
// default 100 trials.
func TestNonPositiveTrialsRefused(t *testing.T) {
	for _, trials := range []string{"-3", "0"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-quick", "-trials", trials, "figure3"}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("-trials %s: exit %d, want 1; stderr:\n%s", trials, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "trials must be positive") {
			t.Errorf("-trials %s: stderr %q does not name the bad trial count", trials, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-trials %s: wrote a report:\n%s", trials, stdout.String())
		}
	}
}

// TestFlagSet pins the command's knobs by name. There is no cache
// directory: detector columns live for one process.
func TestFlagSet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{"format", "out", "quick", "seed", "trials"}
	if !slices.Equal(got, want) {
		t.Fatalf("flag set changed:\n got %v\nwant %v", got, want)
	}
}

func TestWritesCSVReport(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-trials", "2", "-format", "csv", "-out", dir, "bandwidth"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "bandwidth.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "# bandwidth — ") {
		t.Fatalf("bandwidth.csv starts %q, want the report's id line", strings.SplitN(string(got), "\n", 2)[0])
	}
	if stdout.Len() != 0 {
		t.Fatalf("-out run wrote to stdout:\n%s", stdout.String())
	}
}
