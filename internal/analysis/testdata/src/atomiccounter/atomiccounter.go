// Package fixture exercises the atomiccounter analyzer: the function-style
// sync/atomic API is a finding wherever it is called; the typed atomics
// are the sanctioned form.
package fixture

import "sync/atomic"

var hits int64

func bump()       { atomic.AddInt64(&hits, 1) }      // want `atomic.AddInt64 is the function-style sync/atomic API`
func read() int64 { return atomic.LoadInt64(&hits) } // want `atomic.LoadInt64 is the function-style`

// plainRead is the race the function-style API leaves open; the finding is
// at the atomic calls above, not here.
func plainRead() int64 { return hits }

type stats struct{ frames int64 }

func (s *stats) add(n int64) { atomic.AddInt64(&s.frames, n) } // want `use the typed atomics`

func swapOnce(flag *uint32) bool {
	return atomic.CompareAndSwapUint32(flag, 0, 1) // want `atomic.CompareAndSwapUint32`
}

// suppressed shows a reasoned suppression.
func suppressed() {
	atomic.StoreInt64(&hits, 0) //smokevet:ignore atomiccounter: fixture exercises suppression of a function-style store
}

// The typed atomics are immune by construction: no findings.
var (
	typed    atomic.Int64
	typedPtr atomic.Pointer[stats]
)

func typedOK() int64 {
	typed.Add(1)
	typedPtr.Store(&stats{})
	return typed.Load()
}
