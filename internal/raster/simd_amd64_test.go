package raster

import "testing"

// simdKernels names every row kernel that simd switches, with its AVX2
// body, its AVX-512 body if it has one, and its Go body (the non-SIMD
// path, the AVX2 body's len%lanes tail and the oracle of its *MatchesGoBody
// test).
var simdKernels = []struct{ kernel, avx512, avx2, goBody string }{
	{"raster.noisePlane", "noisePlaneAVX512", "noisePlaneAVX2", "noiseRowGo, row by row"},
	{"raster.blendRow", "blendRowAVX512", "blendRowAVX2", "blendRowGo"},
	{"raster.lerpRow", "", "lerpRowAVX2", "lerpRowGo"},
	{"raster.boxCols", "", "boxColsAVX2", "boxColsGo"},
	{"raster.integrateRows", "", "integrateRows4AVX2", "integrateRowsGo"},
	{"detect.smoothPlane", "", "smoothPlaneAVX2", "smoothPlaneGo"},
	{"detect.runSum", "", "runSumAVX2", "runSumGo"},
}

// TestSIMDDispatch reads CPUID and XGETBV itself and fails if they report
// AVX2 with OS-enabled YMM state, or AVX512F and AVX512DQ with OS-enabled
// opmask and ZMM state, while the kernels picked a slower body (or the
// other way round), so a host that can run the SIMD bodies never falls
// back unnoticed. It logs the body and tier each kernel runs.
func TestSIMDDispatch(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	avx2, avx512 := false, false
	if _, _, ecx1, _ := cpuid(1, 0); maxID >= 7 && ecx1>>27&1 == 1 {
		xcr0, _ := xgetbv()
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = xcr0>>1&3 == 3 && ebx7>>5&1 == 1
		avx512 = avx2 && xcr0>>5&7 == 7 && ebx7>>16&1 == 1 && ebx7>>17&1 == 1
	}
	for _, k := range simdKernels {
		body, tier := k.goBody, "go"
		switch {
		case simd512 && k.avx512 != "":
			body, tier = k.avx512, "avx512"
		case SIMD():
			body, tier = k.avx2, "avx2"
		}
		t.Logf("CPU AVX2: %v, AVX-512: %v; %s runs %s (%s)", avx2, avx512, k.kernel, body, tier)
	}
	if avx2 != simd || SIMD() != simd || avx512 != simd512 {
		t.Fatalf("CPUID/XGETBV report AVX2 = %v and AVX-512 = %v, but simd = %v, SIMD() = %v and simd512 = %v",
			avx2, avx512, simd, SIMD(), simd512)
	}
}

// useTier makes the kernels dispatch as on a CPU of the given tier (go,
// avx2 or avx512, at most the CPU's own) and returns the function that
// restores the CPU's decision. Only benchmarks call it, between runs, to
// time a whole kernel at each tier.
func useTier(tier string) (restore func()) {
	avx2, avx512 := simd, simd512
	simd, simd512 = tier != "go", tier == "avx512"
	return func() { simd, simd512 = avx2, avx512 }
}
