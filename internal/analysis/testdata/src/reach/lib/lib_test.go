package lib

import "testing"

// A test's use reaches nothing: the loader skips _test.go files.
func TestUnused(t *testing.T) {
	var v T
	v.Reset()
	if Unused() != 2 {
		t.Fatal("Unused")
	}
}
