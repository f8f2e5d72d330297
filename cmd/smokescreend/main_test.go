package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSet pins the daemon's knobs by name, so adding one is a reviewed
// change to this list rather than a line lost in main.go.
func TestFlagSet(t *testing.T) {
	want := []string{
		"addr", "addr-file", "cache-mb", "drain-timeout",
		"fleet-nodes", "fleet-replicas", "fleet-self",
		"fleet-vnodes", "job-timeout", "parallelism", "queue",
		"request-timeout", "store", "workers",
	}
	fs := flag.NewFlagSet("smokescreend", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag set changed:\n got %v\nwant %v", got, want)
	}
}
