package raster

// noiseSIMD reports whether noiseRow runs its AVX2 body. CPUID and XGETBV
// decide it once, at package init; nothing else selects a body.
var noiseSIMD = hasAVX2()

// noiseRow is the one noise kernel (see noiseRowGo for what it computes).
// On a CPU with AVX2 the assembly body noiseRowAVX2 computes four pixels per
// iteration and the Go body finishes the len%4 tail from its true column;
// every other CPU runs the Go body alone. The two are bit-identical: the
// hash is integer arithmetic, and the float tail is the Go body's multiply,
// add, clamp and subtract in the same order and operand order, with no FMA.
func noiseRow(out, in, bg []float32, rowTerm uint64, step float32) {
	n := 0
	if noiseSIMD {
		n = len(out) &^ 3
		noiseRowAVX2(out[:n], in[:n], bg[:n], rowTerm, step)
	}
	noiseRowGo(out, in, bg, rowTerm, step, n)
}

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

// noiseRowAVX2 is noiseRowGo from column 0 for len(out) a multiple of 4, with
// in and bg at least as long; out may be in (each group of four is loaded
// before it is stored), but must not otherwise overlap it.
//
//go:noescape
func noiseRowAVX2(out, in, bg []float32, rowTerm uint64, step float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
