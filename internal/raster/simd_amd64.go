package raster

// simd reports whether the row kernels run their AVX2 bodies, and simd512
// whether the noise plane and the bilinear blend run their AVX-512 bodies
// instead. CPUID and XGETBV decide both once, at package init, for every
// kernel of this package and for detect's (through SIMD); nothing else
// selects a body.
var simd, simd512 = cpuSIMD()

// cpuSIMD reads the CPU's tier. AVX2 needs CPUID.7.0:EBX[5] and the OS
// saving YMM state (CPUID.1:ECX[27] OSXSAVE, then XCR0 bits 1 and 2).
// AVX-512 needs AVX2, AVX512F and AVX512DQ (CPUID.7.0:EBX[16] and [17];
// VPMULLQ is DQ) and the OS saving the opmask and ZMM state too (XCR0
// bits 5, 6 and 7).
func cpuSIMD() (avx2, avx512 bool) {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = xcr0&6 == 6 && ebx7&(1<<5) != 0
	avx512 = avx2 && xcr0&0xe6 == 0xe6 && ebx7&(3<<16) == 3<<16
	return avx2, avx512
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

// The AVX-512 bodies, for the two kernels whose inner step has no AVX2
// form: a 64-bit multiply (VPMULLQ) and a two-table permute (VPERMI2PS).
// Each covers all of len(out), its last len%16 columns under an opmask.

// noisePlaneAVX512 is noisePlaneAVX2 sixteen pixels per step: two chains
// of eight u64 lanes, then each row's last w%16 pixels under an opmask.
// Its arguments are noisePlaneAVX2's.
//
//go:noescape
func noisePlaneAVX512(out, in, bg []float32, w, bgStride int, seed uint64, step float32)

// blendRowAVX512 is blendRowGo over all of out, sixteen columns per step:
// v0 and v1 are each one two-table permute of the 32 samples from the
// step's first tap, or a gather where the step's taps span more than 32.
// i0, i1 and f are as long as out, and their taps index row.
//
//go:noescape
func blendRowAVX512(out, row []float32, i0, i1 []int32, f []float32)
