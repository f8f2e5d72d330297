#include "textflag.h"

// Operand order: column 0's a+b takes b first and every column sum takes
// cur first, the order the compiled Go body (smoothMaskRow, colSums) uses.
// That order is the compiler's choice, not the source's, so after an edit
// of those Go lines a TestSmoothPlaneMatchesGoBody failure on NaN payloads
// alone, with every golden digest unchanged, means the compiled order
// flipped, not the result.

// STEP computes the eight smoothed samples s of output columns [R12, R12+8)
// into Y0, as eight iterations of smoothMaskRow's loop: each lane sums the
// column sums a, b and c (Y2) of its column's left neighbour, itself and
// its right neighbour, each c = (cur+prev)+next, then s = ((a+b)+c)*inv3
// (Y7). Each VADDPS and VMULPS takes as first source the operand the
// compiled Go loop keeps in its destination register, since x86 returns the
// first source's NaN when both are NaN. It then leaves in AX the eight mask
// bits s > t || s < -t (ordered compares: NaN is never masked) and stores
// |s| (the sign bit cleared, as math.Abs does) to abs.
#define STEP \
	VMOVUPS   -4(SI)(R12*4), Y0;     \
	VADDPS    -4(R8)(R12*4), Y0, Y0; \
	VADDPS    -4(R9)(R12*4), Y0, Y0; \
	VMOVUPS   (SI)(R12*4), Y1;       \
	VADDPS    (R8)(R12*4), Y1, Y1;   \
	VADDPS    (R9)(R12*4), Y1, Y1;   \
	VMOVUPS   4(SI)(R12*4), Y2;      \
	VADDPS    4(R8)(R12*4), Y2, Y2;  \
	VADDPS    4(R9)(R12*4), Y2, Y2;  \
	VADDPS    Y1, Y0, Y0;            \
	VADDPS    Y2, Y0, Y0;            \
	VMULPS    Y7, Y0, Y0;            \
	VCMPPS    $0x1e, Y10, Y0, Y3;    \
	VCMPPS    $0x11, Y11, Y0, Y4;    \
	VORPS     Y4, Y3, Y3;            \
	VANDPS    Y14, Y0, Y0;           \
	VMOVUPS   Y0, (DI)(R12*4);       \
	VMOVMSKPS Y3, AX

// EDGE finishes an edge column's sample s = (X0)*inv2 (X5): it stores |s|
// to dst and leaves its mask bit in bit 0 of reg.
#define EDGE(dst, reg) \
	VMULSS  X5, X0, X0;         \
	VCMPSS  $0x1e, X10, X0, X3; \
	VCMPSS  $0x11, X11, X0, X4; \
	VORPS   X4, X3, X3;         \
	VANDPS  X14, X0, X0;        \
	VMOVSS  X0, dst;            \
	VMOVD   X3, reg;            \
	ANDL    $1, reg

// func smoothPlaneAVX2(abs, v, zero []float32, mask []uint64, w, mw int, inv2e, inv3e, inv2i, inv3i, t float32)
//
// One row at a time, SI, R8 and R9 on the row and its neighbours (zero
// beyond an edge): column 0 in scalar from the column sums of columns 0
// and 1, then steps of eight over columns [1, 1+8k), then one last step
// over [w-9, w-1), which recomputes some columns with the same bits, and
// column w-1 from lanes 6 and 7 of that step's c, the column sums of
// columns w-2 and w-1. Column x is mask bit x+7, so column 0 is bit 7 and
// a step from column 1+8k fills byte k+1: the bytes gather in R11 (CX is
// the bit offset) and each word is stored whole when the next step needs
// a fresh one, since a word read back soon after byte stores would stall
// on store forwarding. The last step's bits and column w-1's bit, nine
// bits from bit w-2, are ORed into the last word, and what spills past it
// is the row's next and last word.
TEXT ·smoothPlaneAVX2(SB), NOSPLIT, $0-132
	MOVQ         abs_base+0(FP), DI
	MOVQ         v_base+24(FP), SI
	MOVQ         v_len+32(FP), R14
	LEAQ         (SI)(R14*4), R14  // end of v
	MOVQ         mask_base+72(FP), R13
	MOVQ         w+96(FP), BX
	LEAQ         (BX*4), R15       // row stride in bytes
	VBROADCASTSS inv3e+116(FP), Y8
	VBROADCASTSS inv3i+124(FP), Y9
	VMOVSS       inv2e+112(FP), X12
	VMOVSS       inv2i+120(FP), X13
	VBROADCASTSS t+128(FP), Y10
	MOVL         t+128(FP), AX
	XORL         $0x80000000, AX
	VMOVD        AX, X11
	VBROADCASTSS X11, Y11            // -t
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X14
	VBROADCASTSS X14, Y14            // |x| mask

row:
	// The neighbours, and the window inverses of an edge or interior row.
	MOVQ    zero_base+48(FP), DX
	MOVQ    DX, R8
	MOVQ    DX, R9
	CMPQ    SI, v_base+24(FP)
	JEQ     top
	MOVQ    SI, R8
	SUBQ    R15, R8

top:
	LEAQ    (SI)(R15*1), AX
	CMPQ    AX, R14
	JEQ     bottom
	MOVQ    AX, R9

bottom:
	VMOVAPS Y8, Y7
	VMOVAPS X12, X5
	CMPQ    R8, DX
	JEQ     col0
	CMPQ    R9, DX
	JEQ     col0
	VMOVAPS Y9, Y7
	VMOVAPS X13, X5

col0:
	VMOVSS (SI), X0
	VADDSS (R8), X0, X0
	VADDSS (R9), X0, X0
	VMOVSS 4(SI), X1
	VADDSS 4(R8), X1, X1
	VADDSS 4(R9), X1, X1
	VADDSS X0, X1, X0    // b first, as the compiled Go body adds
	EDGE((DI), R11)
	SHLQ   $7, R11
	MOVQ   $1, R12
	MOVQ   $8, CX
	MOVQ   R13, R10
	LEAQ   -2(BX), DX
	SHRQ   $3, DX        // steps from column 1

steps:
	CMPQ CX, $64
	JNE  fill
	MOVQ R11, (R10)
	ADDQ $8, R10
	XORL R11, R11
	XORL CX, CX

fill:
	STEP
	SHLQ CX, AX
	ORQ  AX, R11
	ADDQ $8, CX
	ADDQ $8, R12
	DECQ DX
	JNZ  steps

	// The last step, and column w-1.
	LEAQ         -9(BX), R12
	STEP
	VEXTRACTF128 $1, Y2, X2
	VMOVHLPS     X2, X2, X2
	VPSRLQ       $32, X2, X1
	VADDSS       X1, X2, X0
	EDGE(-4(DI)(BX*4), DX)
	SHLL         $8, DX
	ORL          DX, AX

	// Bit w-2 lies (w-2)&7 bits past the last full step's byte, CX-8.
	LEAQ -2(BX), DX
	ANDQ $7, DX
	LEAQ -8(CX)(DX*1), CX
	MOVQ AX, DX
	SHLQ CX, AX
	ORQ  AX, R11
	MOVQ R11, (R10)
	CMPQ CX, $56
	JLT  rowdone
	NEGQ CX
	ADDQ $64, CX
	SHRQ CX, DX
	MOVQ DX, 8(R10)

rowdone:
	ADDQ R15, SI
	ADDQ R15, DI
	MOVQ mw+104(FP), DX
	LEAQ (R13)(DX*8), R13
	CMPQ SI, R14
	JNE  row
	VZEROUPPER
	RET

// func runSumAVX2(c []float32) float64
//
// Eight floats a step, widened exactly (VCVTPS2PD) into two accumulators
// of four float64 lanes, lane i of the pair holding accumulator i; then
// four more into the first if four remain; then (a0+a4)+(a2+a6) plus
// (a1+a5)+(a3+a7); then the last up to three in order.
TEXT ·runSumAVX2(SB), NOSPLIT, $0-32
	MOVQ   c_base+0(FP), SI
	MOVQ   c_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   CX, $8
	JLT    four

eight:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, SI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       eight

four:
	CMPQ      CX, $4
	JLT       reduce
	VCVTPS2PD (SI), Y2
	VADDPD    Y2, Y0, Y0
	ADDQ      $16, SI
	SUBQ      $4, CX

reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	TESTQ        CX, CX
	JZ           done

tail:
	VCVTSS2SD (SI), X1, X1
	VADDSD    X1, X0, X0
	ADDQ      $4, SI
	DECQ      CX
	JNZ       tail

done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET
