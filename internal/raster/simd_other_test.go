//go:build !amd64

package raster

// useTier is a no-op off amd64, whose one tier is go.
func useTier(tier string) (restore func()) { return func() {} }
