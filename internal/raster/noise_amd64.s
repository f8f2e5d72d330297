#include "textflag.h"

// Column lanes of the first group: uint64(x)<<32 for x = 0, 1, 2, 3.
DATA noiseLanes<>+0(SB)/8, $0x0000000000000000
DATA noiseLanes<>+8(SB)/8, $0x0000000100000000
DATA noiseLanes<>+16(SB)/8, $0x0000000200000000
DATA noiseLanes<>+24(SB)/8, $0x0000000300000000
GLOBL noiseLanes<>(SB), RODATA|NOPTR, $32

// VPERMD indices gathering the low dword of each qword into the low lane.
DATA noiseNarrow<>+0(SB)/4, $0
DATA noiseNarrow<>+4(SB)/4, $2
DATA noiseNarrow<>+8(SB)/4, $4
DATA noiseNarrow<>+12(SB)/4, $6
DATA noiseNarrow<>+16(SB)/4, $0
DATA noiseNarrow<>+20(SB)/4, $0
DATA noiseNarrow<>+24(SB)/4, $0
DATA noiseNarrow<>+28(SB)/4, $0
GLOBL noiseNarrow<>(SB), RODATA|NOPTR, $32

// MUL64 sets z = z*c mod 2^64 in each qword, c's low and high dwords in clo
// and chi: lo(z)·lo(c) + (hi(z)·lo(c) + lo(z)·hi(c))<<32.
#define MUL64(z, clo, chi, t0, t1) \
	VPSRLQ   $32, z, t0;  \
	VPMULUDQ clo, t0, t0; \
	VPMULUDQ chi, z, t1;  \
	VPADDQ   t1, t0, t0;  \
	VPSLLQ   $32, t0, t0; \
	VPMULUDQ clo, z, z;   \
	VPADDQ   t0, z, z

// func noiseRowAVX2(out, in, bg []float32, rowTerm uint64, step float32)
//
// Per lane this is noiseRowGo: the splitmix finalizer of
// (rowTerm ^ x<<32) + 0x9e3779b97f4a7c15, its three 21-bit fields summed,
// narrowed to int32 and centred (exact: |n| < 2^22), converted, then
// n*step, in + that, the clamp, and - bg, each one IEEE single operation in
// the Go body's operand order. VMAXPS and VMINPS take the bound as first
// source, so they return the pixel itself on ±0 and NaN, as clamp01 does.
TEXT ·noiseRowAVX2(SB), NOSPLIT, $0-84
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ in_base+24(FP), SI
	MOVQ bg_base+48(FP), DX
	SHRQ $2, CX
	JZ   done

	VPBROADCASTQ rowTerm+72(FP), Y0
	VBROADCASTSS step+80(FP), X1
	VMOVDQU      noiseLanes<>(SB), Y2
	MOVQ         $0x0000000400000000, AX
	VMOVQ        AX, X3
	VPBROADCASTQ X3, Y3
	MOVQ         $0x9e3779b97f4a7c15, AX
	VMOVQ        AX, X4
	VPBROADCASTQ X4, Y4
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VMOVQ        AX, X5
	VPBROADCASTQ X5, Y5
	VPSRLQ       $32, Y5, Y6
	MOVQ         $0x94d049bb133111eb, AX
	VMOVQ        AX, X7
	VPBROADCASTQ X7, Y7
	VPSRLQ       $32, Y7, Y8
	MOVQ         $0x1fffff, AX
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	VMOVDQU      noiseNarrow<>(SB), Y10
	MOVL         $0x300000, AX
	VMOVQ        AX, X11
	VPBROADCASTD X11, X11
	MOVL         $0x3f800000, AX
	VMOVQ        AX, X12
	VBROADCASTSS X12, X12

loop:
	// z = (rowTerm ^ x<<32) + C0; z ^= z>>30; z *= C1
	VPXOR  Y2, Y0, Y13
	VPADDQ Y4, Y13, Y13
	VPSRLQ $30, Y13, Y14
	VPXOR  Y14, Y13, Y13
	MUL64(Y13, Y5, Y6, Y14, Y15)

	// z ^= z>>27; z *= C2; h = z ^ z>>31
	VPSRLQ $27, Y13, Y14
	VPXOR  Y14, Y13, Y13
	MUL64(Y13, Y7, Y8, Y14, Y15)
	VPSRLQ $31, Y13, Y14
	VPXOR  Y14, Y13, Y13

	// n = h&M + (h>>21)&M + (h>>42)&M - 3<<20, as four int32
	VPAND   Y9, Y13, Y14
	VPSRLQ  $21, Y13, Y15
	VPAND   Y9, Y15, Y15
	VPADDQ  Y15, Y14, Y14
	VPSRLQ  $42, Y13, Y15
	VPAND   Y9, Y15, Y15
	VPADDQ  Y15, Y14, Y14
	VPERMD  Y14, Y10, Y14
	VPSUBD  X11, X14, X14

	// out = clamp01(in + float32(n)*step) - bg
	VCVTDQ2PS X14, X14
	VMULPS    X1, X14, X14
	VMOVUPS   (SI), X15
	VADDPS    X14, X15, X14
	VXORPS    X15, X15, X15
	VMAXPS    X14, X15, X14
	VMINPS    X14, X12, X14
	VSUBPS    (DX), X14, X14
	VMOVUPS   X14, (DI)

	VPADDQ Y3, Y2, Y2
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	DECQ   CX
	JNZ    loop

done:
	VZEROUPPER
	RET
