// Package fixture exercises the reach analyzer: it uses some of lib's
// exports from across the package boundary and declares none of its own.
package fixture

import "fixture/reach/lib"

var _ lib.Sizer = (*lib.T)(nil)

func use() int {
	t := &lib.T{}
	return lib.Used() + lib.Max + t.Get()
}
