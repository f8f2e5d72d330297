package raster

import "testing"

// simdKernels names every row kernel that simd switches, with its AVX2 body
// and its Go body (the non-AVX2 path, the len%lanes tail and the oracle of
// its *MatchesGoBody test).
var simdKernels = []struct{ kernel, avx2, goBody string }{
	{"raster.noisePlane", "noisePlaneAVX2", "noiseRowGo, row by row"},
	{"raster.blendRow", "blendRowAVX2", "blendRowGo"},
	{"raster.lerpRow", "lerpRowAVX2", "lerpRowGo"},
	{"raster.boxCols", "boxColsAVX2", "boxColsGo"},
	{"raster.integrateRows", "integrateRows4AVX2", "integrateRowsGo"},
	{"detect.smoothPlane", "smoothPlaneAVX2", "smoothPlaneGo"},
	{"detect.runSum", "runSumAVX2", "runSumGo"},
}

// TestSIMDDispatch reads CPUID and XGETBV itself and fails if they report
// AVX2 with OS-enabled YMM state while the kernels picked their Go bodies
// (or the other way round), so a host that can run the SIMD bodies never
// falls back to the Go loops unnoticed. It logs the body each kernel runs.
func TestSIMDDispatch(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	avx2 := false
	if _, _, ecx1, _ := cpuid(1, 0); maxID >= 7 && ecx1>>27&1 == 1 {
		xcr0, _ := xgetbv()
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = xcr0>>1&3 == 3 && ebx7>>5&1 == 1
	}
	for _, k := range simdKernels {
		body := k.goBody
		if SIMD() {
			body = k.avx2
		}
		t.Logf("CPU AVX2: %v; %s runs %s", avx2, k.kernel, body)
	}
	if avx2 != simd || SIMD() != simd {
		t.Fatalf("CPUID/XGETBV report AVX2 = %v, but simd = %v and SIMD() = %v", avx2, simd, SIMD())
	}
}
