// Package fixture exercises the lockorder analyzer: cross-package
// acquisition cycles assembled from fact-propagated lock sets.
package fixture

import (
	"sync"

	"fixture/lockorder/dep"
)

// Reversed holds MuB and then calls dep.LockA, whose imported LocksFact
// says it acquires MuA. dep itself acquires A before B, so this edge
// B -> A closes a cycle no single package can see.
func Reversed() {
	dep.MuB.Lock()
	defer dep.MuB.Unlock()
	dep.LockA() // want `lock-order cycle`
}

var (
	muC sync.Mutex
	muD sync.Mutex
)

// NestedOK nests muD under muC.
func NestedOK() {
	muC.Lock()
	defer muC.Unlock()
	muD.Lock()
	muD.Unlock()
}

// NestedOKAgain repeats the same order: consistent nesting is fine.
func NestedOKAgain() {
	muC.Lock()
	defer muC.Unlock()
	muD.Lock()
	muD.Unlock()
}
