package raster

import "testing"

// TestNoiseDispatch reads CPUID and XGETBV itself and fails if they report
// AVX2 with OS-enabled YMM state while noiseRow picked the Go body (or the
// other way round), so a host that can run the SIMD body never falls back
// to the Go loop unnoticed.
func TestNoiseDispatch(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	avx2 := false
	if _, _, ecx1, _ := cpuid(1, 0); maxID >= 7 && ecx1>>27&1 == 1 {
		xcr0, _ := xgetbv()
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = xcr0>>1&3 == 3 && ebx7>>5&1 == 1
	}
	body := map[bool]string{false: "Go loop", true: "AVX2"}
	t.Logf("CPU AVX2: %v; noiseRow body: %s", avx2, body[noiseSIMD])
	if avx2 != noiseSIMD {
		t.Fatalf("CPUID/XGETBV report AVX2 = %v, but noiseRow runs the %s body", avx2, body[noiseSIMD])
	}
}
