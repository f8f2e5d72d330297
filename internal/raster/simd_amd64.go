package raster

// simd reports whether the row kernels run their AVX2 bodies. CPUID and
// XGETBV decide it once, at package init, for every kernel of this package
// and for detect's (through SIMD); nothing else selects a body.
var simd = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 (CPUID.7.0:EBX[5]) and the OS
// saves YMM state (CPUID.1:ECX[27] OSXSAVE, then XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 bodies. Each computes its Go body's columns [0, len(out)) for
// len(out) a multiple of its lane count, one IEEE operation per Go
// operation, in the Go body's order, with no FMA (resample_amd64.s says
// which operand each add takes first).

// noisePlaneAVX2 is noisePlane's AVX2 body over the len(out)/w rows of w
// >= 1 columns: eight pixels per iteration as two chains of four hashes,
// then each row's last w%8 pixels through the same body with masked loads
// and stores. in holds as many samples as out, and bg row y is the w
// samples at y*bgStride; out may be in (each group is loaded before it is
// stored), but must not otherwise overlap it.
//
//go:noescape
func noisePlaneAVX2(out, in, bg []float32, w, bgStride int, seed uint64, step float32)

// blendRowAVX2 is blendRowGo, eight columns per iteration: two VGATHERDPS
// of row at the column taps i0 and i1, which must index row.
//
//go:noescape
func blendRowAVX2(out, row []float32, i0, i1 []int32, f []float32)

// lerpRowAVX2 is lerpRowGo, eight columns per iteration.
//
//go:noescape
func lerpRowAVX2(out, tops, bots []float32, fy float32)

// boxColsAVX2 is boxColsGo, four columns per iteration in float64 lanes,
// every tap's row of ints at least len(out) long from its offset.
//
//go:noescape
func boxColsAVX2(out []float32, ints []float64, taps []boxTap, inv []float64, invY float64)

// integrateRows4AVX2 is integrateRowsGo over four source rows at once, one
// float64 lane per row: rows holds row j at j*stride, each at least as long
// as every edge's column, and out holds row j's len(edges)-1 integrals at
// j*(len(edges)-1).
//
//go:noescape
func integrateRows4AVX2(out []float64, rows []float32, stride int, edges []boxEdge)
