// Package lib holds the reach fixture's declarations. The fixture's root
// package uses some of them across the package boundary; lib_test.go uses
// the rest, and test uses do not count.
package lib

import (
	"fmt"
	"io"
)

// Used is called from the root package.
func Used() int { return 1 }

// Unused is called by tests only.
func Unused() int { return 2 } // want `exported func Unused has no use outside _test\.go files`

// Max is read from the root package.
const Max = 3

// Limit is read by nothing.
const Limit = 4 // want `exported const Limit has no use`

// Counter is written by nothing.
var Counter int // want `exported var Counter has no use`

// Orphan is named only by its own method's receiver.
type Orphan struct{} // want `exported type Orphan has no use`

// String satisfies fmt.Stringer, so fmt may call it unnamed.
func (Orphan) String() string { return "orphan" }

// T is used from the root package.
type T struct{ n int }

// Get is called from the root package.
func (t *T) Get() int { return t.n }

// Reset is called by tests only.
func (t *T) Reset() { t.n = 0 } // want `exported method T\.Reset has no use`

// String satisfies fmt.Stringer.
func (t *T) String() string { return fmt.Sprint(t.n) }

// Sizer is the fixture's own interface; the root package asserts T
// implements it.
type Sizer interface{ Size() int }

// Size satisfies Sizer.
func (t *T) Size() int { return t.n }

// byteReader is unexported, but its exported method satisfies
// io.ByteReader, which is how binary.ReadUvarint would call it.
type byteReader struct{ r io.ByteReader }

func (b *byteReader) ReadByte() (byte, error) { return b.r.ReadByte() }

// Hook is kept for a caller outside the module.
//
//smokevet:ignore reach: a caller outside the module uses it
func Hook() {}
