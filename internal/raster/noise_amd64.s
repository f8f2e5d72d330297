#include "textflag.h"

// Column lanes of the two chains: uint64(x)<<32 for x = 0, 2, 4, 6 (chain A)
// and x = 1, 3, 5, 7 (chain B), so the chains' field sums interleave into
// columns 0–7 in order.
DATA noiseLanes<>+0(SB)/8, $0x0000000000000000
DATA noiseLanes<>+8(SB)/8, $0x0000000200000000
DATA noiseLanes<>+16(SB)/8, $0x0000000400000000
DATA noiseLanes<>+24(SB)/8, $0x0000000600000000
DATA noiseLanes<>+32(SB)/8, $0x0000000100000000
DATA noiseLanes<>+40(SB)/8, $0x0000000300000000
DATA noiseLanes<>+48(SB)/8, $0x0000000500000000
DATA noiseLanes<>+56(SB)/8, $0x0000000700000000
GLOBL noiseLanes<>(SB), RODATA|NOPTR, $64

// One step's lane advance, 8<<32 per qword.
DATA noiseStep8<>+0(SB)/8, $0x0000000800000000
DATA noiseStep8<>+8(SB)/8, $0x0000000800000000
DATA noiseStep8<>+16(SB)/8, $0x0000000800000000
DATA noiseStep8<>+24(SB)/8, $0x0000000800000000
GLOBL noiseStep8<>(SB), RODATA|NOPTR, $32

// The splitmix increment, per qword.
DATA noiseGamma<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA noiseGamma<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA noiseGamma<>+16(SB)/8, $0x9e3779b97f4a7c15
DATA noiseGamma<>+24(SB)/8, $0x9e3779b97f4a7c15
GLOBL noiseGamma<>(SB), RODATA|NOPTR, $32

// The Irwin–Hall centre 3<<20, per dword.
DATA noiseCentre<>+0(SB)/8, $0x0030000000300000
DATA noiseCentre<>+8(SB)/8, $0x0030000000300000
DATA noiseCentre<>+16(SB)/8, $0x0030000000300000
DATA noiseCentre<>+24(SB)/8, $0x0030000000300000
GLOBL noiseCentre<>(SB), RODATA|NOPTR, $32

// MUL64 sets z = z*c mod 2^64 in each qword, c's low and high dwords in clo
// and chi: lo(z)·lo(c) + (hi(z)·lo(c) + lo(z)·hi(c))<<32; za and zb are
// the two chains, interleaved instruction by instruction.
#define MUL64(za, ta0, ta1, zb, tb0, tb1, clo, chi) \
	VPSRLQ   $32, za, ta0;   \
	VPSRLQ   $32, zb, tb0;   \
	VPMULUDQ clo, ta0, ta0;  \
	VPMULUDQ clo, tb0, tb0;  \
	VPMULUDQ chi, za, ta1;   \
	VPMULUDQ chi, zb, tb1;   \
	VPADDQ   ta1, ta0, ta0;  \
	VPADDQ   tb1, tb0, tb0;  \
	VPSLLQ   $32, ta0, ta0;  \
	VPSLLQ   $32, tb0, tb0;  \
	VPMULUDQ clo, za, za;    \
	VPMULUDQ clo, zb, zb;    \
	VPADDQ   ta0, za, za;    \
	VPADDQ   tb0, zb, zb

// XSHR sets z ^= z>>s in both chains.
#define XSHR(s, za, ta, zb, tb) \
	VPSRLQ $s, za, ta; \
	VPSRLQ $s, zb, tb; \
	VPXOR  ta, za, za; \
	VPXOR  tb, zb, zb

// FIELD adds (z>>s)&M to the field sum f in both chains.
#define FIELD(s, za, fa, ta, zb, fb, tb) \
	VPSRLQ $s, za, ta; \
	VPSRLQ $s, zb, tb; \
	VPAND  Y9, ta, ta; \
	VPAND  Y9, tb, tb; \
	VPADDQ ta, fa, fa; \
	VPADDQ tb, fb, fb

// NOISE8 leaves in Y10 the eight centred Irwin–Hall sums n of the columns
// whose lanes Y2 (chain A) and Y3 (chain B) hold, as int32 in column order:
// per lane, z = (rowTerm ^ x<<32) + C0; z ^= z>>30; z *= C1; z ^= z>>27;
// z *= C2; h = z ^ z>>31; n = h&M + (h>>21)&M + (h>>42)&M - 3<<20. Every
// field sum is below 2^23, so it sits in its qword's low dword; chain B's is
// shifted into the high dword and blended over chain A's.
#define NOISE8 \
	VPXOR    Y2, Y0, Y10;                                \
	VPXOR    Y3, Y0, Y11;                                \
	VPADDQ   noiseGamma<>(SB), Y10, Y10;                 \
	VPADDQ   noiseGamma<>(SB), Y11, Y11;                 \
	XSHR(30, Y10, Y12, Y11, Y13);                        \
	MUL64(Y10, Y12, Y14, Y11, Y13, Y15, Y4, Y5);         \
	XSHR(27, Y10, Y12, Y11, Y13);                        \
	MUL64(Y10, Y12, Y14, Y11, Y13, Y15, Y6, Y7);         \
	XSHR(31, Y10, Y12, Y11, Y13);                        \
	VPAND    Y9, Y10, Y14;                               \
	VPAND    Y9, Y11, Y15;                               \
	FIELD(21, Y10, Y14, Y12, Y11, Y15, Y13);             \
	FIELD(42, Y10, Y14, Y12, Y11, Y15, Y13);             \
	VPSLLQ   $32, Y15, Y15;                              \
	VPBLENDD $0xaa, Y15, Y14, Y10;                       \
	VPSUBD   noiseCentre<>(SB), Y10, Y10

// Lane masks of a row's last group of 1–7 columns: the eight dwords at
// noiseTail<>+4*(8-r) are r all-ones then zeros.
DATA noiseTail<>+0(SB)/8, $0xffffffffffffffff
DATA noiseTail<>+8(SB)/8, $0xffffffffffffffff
DATA noiseTail<>+16(SB)/8, $0xffffffffffffffff
DATA noiseTail<>+24(SB)/8, $0xffffffffffffffff
DATA noiseTail<>+32(SB)/8, $0
DATA noiseTail<>+40(SB)/8, $0
DATA noiseTail<>+48(SB)/8, $0
DATA noiseTail<>+56(SB)/8, $0
GLOBL noiseTail<>(SB), RODATA|NOPTR, $64

// FINISH writes out = clamp01(in + float32(n)*step) - bg for the eight n in
// Y10: each one IEEE single operation in the Go body's operand order.
// VMAXPS and VMINPS take the bound as first source, so they return the
// pixel itself on ±0 and NaN, as clamp01 does.
#define FINISH \
	VCVTDQ2PS Y10, Y10;      \
	VMULPS    Y1, Y10, Y10;  \
	VMOVUPS   (SI), Y11;     \
	VADDPS    Y10, Y11, Y10; \
	VXORPS    Y11, Y11, Y11; \
	VMAXPS    Y10, Y11, Y10; \
	VMINPS    Y10, Y8, Y10;  \
	VSUBPS    (DX), Y10, Y10; \
	VMOVUPS   Y10, (DI)

// FINISHM is FINISH reading and writing only the lanes Y12 selects.
#define FINISHM \
	VCVTDQ2PS  Y10, Y10;       \
	VMULPS     Y1, Y10, Y10;   \
	VMASKMOVPS (SI), Y12, Y11; \
	VADDPS     Y10, Y11, Y10;  \
	VXORPS     Y11, Y11, Y11;  \
	VMAXPS     Y10, Y11, Y10;  \
	VMINPS     Y10, Y8, Y10;   \
	VMASKMOVPS (DX), Y12, Y13; \
	VSUBPS     Y13, Y10, Y10;  \
	VMASKMOVPS Y10, Y12, (DI)

// func noisePlaneAVX2(out, in, bg []float32, w, bgStride int, seed uint64, step float32)
//
// Per lane this is noiseRowGo on row y = 0, 1, ... of w columns, with
// rowTerm = seed ^ y: the splitmix finalizer of
// (rowTerm ^ x<<32) + 0x9e3779b97f4a7c15, its three 21-bit fields summed,
// narrowed to int32 and centred, converted (exact: |n| < 2^22), then
// n*step, in + that, the clamp, and - bg. Each step hashes eight columns as
// two independent chains of four u64 lanes, so one chain's multiplies
// run while the other's wait. A row's last w%8 columns run one more step
// whose loads and stores are masked to them (VMASKMOVPS), so no lane reads
// or writes past the row. out and in advance a row of w each, bg a row of
// bgStride.
TEXT ·noisePlaneAVX2(SB), NOSPLIT, $0-100
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R14
	LEAQ (DI)(R14*4), R14   // end of out
	MOVQ in_base+24(FP), SI
	MOVQ bg_base+48(FP), R12
	MOVQ bgStride+80(FP), R13
	SHLQ $2, R13            // bg row stride in bytes
	XORQ R15, R15           // y

	VBROADCASTSS step+96(FP), Y1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VMOVQ        AX, X4
	VPBROADCASTQ X4, Y4
	VPSRLQ       $32, Y4, Y5
	MOVQ         $0x94d049bb133111eb, AX
	VMOVQ        AX, X6
	VPBROADCASTQ X6, Y6
	VPSRLQ       $32, Y6, Y7
	MOVL         $0x3f800000, AX
	VMOVQ        AX, X8
	VBROADCASTSS X8, Y8
	MOVQ         $0x1fffff, AX
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9

row:
	MOVQ         seed+88(FP), AX
	XORQ         R15, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0 // rowTerm
	VMOVDQU      noiseLanes<>+0(SB), Y2
	VMOVDQU      noiseLanes<>+32(SB), Y3
	MOVQ         R12, DX
	MOVQ         w+72(FP), CX
	MOVQ         CX, BX
	ANDQ         $7, BX // the masked step's columns
	SHRQ         $3, CX // steps of eight
	JZ           tail

loop:
	NOISE8
	FINISH
	VPADDQ noiseStep8<>(SB), Y2, Y2
	VPADDQ noiseStep8<>(SB), Y3, Y3
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	DECQ   CX
	JNZ    loop

tail:
	TESTQ BX, BX
	JZ    next
	NOISE8
	LEAQ    noiseTail<>(SB), AX
	MOVQ    $8, CX
	SUBQ    BX, CX
	VMOVDQU (AX)(CX*4), Y12
	FINISHM
	LEAQ  (SI)(BX*4), SI
	LEAQ  (DI)(BX*4), DI

next:
	ADDQ R13, R12
	INCQ R15
	CMPQ DI, R14
	JNE  row
	VZEROUPPER
	RET

// Column lanes of noisePlaneAVX512's two chains: uint64(x)<<32 for x = 0–7
// (chain A) and x = 8–15 (chain B), so the chains' narrowed field sums join
// into columns 0–15 in order.
DATA noiseLanes16<>+0(SB)/8, $0x0000000000000000
DATA noiseLanes16<>+8(SB)/8, $0x0000000100000000
DATA noiseLanes16<>+16(SB)/8, $0x0000000200000000
DATA noiseLanes16<>+24(SB)/8, $0x0000000300000000
DATA noiseLanes16<>+32(SB)/8, $0x0000000400000000
DATA noiseLanes16<>+40(SB)/8, $0x0000000500000000
DATA noiseLanes16<>+48(SB)/8, $0x0000000600000000
DATA noiseLanes16<>+56(SB)/8, $0x0000000700000000
DATA noiseLanes16<>+64(SB)/8, $0x0000000800000000
DATA noiseLanes16<>+72(SB)/8, $0x0000000900000000
DATA noiseLanes16<>+80(SB)/8, $0x0000000a00000000
DATA noiseLanes16<>+88(SB)/8, $0x0000000b00000000
DATA noiseLanes16<>+96(SB)/8, $0x0000000c00000000
DATA noiseLanes16<>+104(SB)/8, $0x0000000d00000000
DATA noiseLanes16<>+112(SB)/8, $0x0000000e00000000
DATA noiseLanes16<>+120(SB)/8, $0x0000000f00000000
GLOBL noiseLanes16<>(SB), RODATA|NOPTR, $128

// XSHR16 sets z ^= z>>s in both zmm chains.
#define XSHR16(s) \
	VPSRLQ $s, Z10, Z12; \
	VPSRLQ $s, Z11, Z13; \
	VPXORQ Z12, Z10, Z10; \
	VPXORQ Z13, Z11, Z11

// FIELD16 adds (z>>s)&M to the field sums Z14 and Z15 of the two chains.
#define FIELD16(s) \
	VPSRLQ $s, Z10, Z12; \
	VPSRLQ $s, Z11, Z13; \
	VPANDQ Z7, Z12, Z12; \
	VPANDQ Z7, Z13, Z13; \
	VPADDQ Z12, Z14, Z14; \
	VPADDQ Z13, Z15, Z15

// NOISE16 leaves in Z10 the sixteen centred Irwin–Hall sums n of the
// columns whose lanes Z2 (chain A, the first eight) and Z3 (chain B, the
// next eight) hold, as int32 in column order: NOISE8's hash with both
// splitmix multiplies one VPMULLQ each. Every field sum is below 2^23, so
// VPMOVQD narrows it exactly; the two narrowed chains join as the low and
// high halves of Z10, then all sixteen are centred.
#define NOISE16 \
	VPXORQ       Z2, Z0, Z10;  \
	VPXORQ       Z3, Z0, Z11;  \
	VPADDQ       Z6, Z10, Z10; \
	VPADDQ       Z6, Z11, Z11; \
	XSHR16(30);                \
	VPMULLQ      Z4, Z10, Z10; \
	VPMULLQ      Z4, Z11, Z11; \
	XSHR16(27);                \
	VPMULLQ      Z5, Z10, Z10; \
	VPMULLQ      Z5, Z11, Z11; \
	XSHR16(31);                \
	VPANDQ       Z7, Z10, Z14; \
	VPANDQ       Z7, Z11, Z15; \
	FIELD16(21);               \
	FIELD16(42);               \
	VPMOVQD      Z14, Y14;     \
	VPMOVQD      Z15, Y15;     \
	VINSERTI64X4 $1, Y15, Z14, Z10; \
	VPSUBD       Z9, Z10, Z10

// FINISH16 is FINISH on the sixteen n in Z10, with the same operand order:
// in first in the add, the bound (Z17 zero, Z8 one) first in VMAXPS and
// VMINPS.
#define FINISH16 \
	VCVTDQ2PS Z10, Z10;       \
	VMULPS    Z1, Z10, Z10;   \
	VMOVUPS   (SI), Z11;      \
	VADDPS    Z10, Z11, Z10;  \
	VMAXPS    Z10, Z17, Z10;  \
	VMINPS    Z10, Z8, Z10;   \
	VSUBPS    (DX), Z10, Z10; \
	VMOVUPS   Z10, (DI)

// FINISH16M is FINISH16 reading and writing only the lanes K1 selects.
#define FINISH16M \
	VCVTDQ2PS  Z10, Z10;          \
	VMULPS     Z1, Z10, Z10;      \
	VMOVUPS.Z  (SI), K1, Z11;     \
	VADDPS     Z10, Z11, Z10;     \
	VMAXPS     Z10, Z17, Z10;     \
	VMINPS     Z10, Z8, Z10;      \
	VMOVUPS.Z  (DX), K1, Z13;     \
	VSUBPS     Z13, Z10, Z10;     \
	VMOVUPS    Z10, K1, (DI)

// func noisePlaneAVX512(out, in, bg []float32, w, bgStride int, seed uint64, step float32)
//
// noisePlaneAVX2 sixteen columns per step: two chains of eight u64 lanes,
// each splitmix multiply one VPMULLQ (AVX512DQ) where AVX2 takes seven
// instructions. A row's last w%16 columns run one more step whose loads
// and stores are masked to them (K1), so no lane reads or writes past the
// row.
TEXT ·noisePlaneAVX512(SB), NOSPLIT, $0-100
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R14
	LEAQ (DI)(R14*4), R14   // end of out
	MOVQ in_base+24(FP), SI
	MOVQ bg_base+48(FP), R12
	MOVQ bgStride+80(FP), R13
	SHLQ $2, R13            // bg row stride in bytes
	XORQ R15, R15           // y

	MOVQ  w+72(FP), R8
	MOVQ  R8, CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1            // the masked step's w%16 lanes
	MOVQ  R8, BX
	ANDQ  $15, BX           // the masked step's columns
	SHRQ  $4, R8            // steps of sixteen

	VBROADCASTSS step+96(FP), Z1
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z4
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z5
	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z6
	MOVQ         $0x1fffff, AX
	VPBROADCASTQ AX, Z7
	MOVL         $0x3f800000, AX
	VPBROADCASTD AX, Z8
	MOVL         $0x300000, AX
	VPBROADCASTD AX, Z9
	MOVQ         $0x0000001000000000, AX
	VPBROADCASTQ AX, Z16    // one step's lane advance, 16<<32
	VPXORD       Z17, Z17, Z17

row512:
	MOVQ         seed+88(FP), AX
	XORQ         R15, AX
	VPBROADCASTQ AX, Z0     // rowTerm
	VMOVDQU64    noiseLanes16<>+0(SB), Z2
	VMOVDQU64    noiseLanes16<>+64(SB), Z3
	MOVQ         R12, DX
	MOVQ         R8, CX
	TESTQ        CX, CX
	JZ           tail512

loop512:
	NOISE16
	FINISH16
	VPADDQ Z16, Z2, Z2
	VPADDQ Z16, Z3, Z3
	ADDQ   $64, SI
	ADDQ   $64, DX
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop512

tail512:
	TESTQ BX, BX
	JZ    next512
	NOISE16
	FINISH16M
	LEAQ (SI)(BX*4), SI
	LEAQ (DI)(BX*4), DI

next512:
	ADDQ R13, R12
	INCQ R15
	CMPQ DI, R14
	JNE  row512
	VZEROUPPER
	RET
