#include "textflag.h"

// STEP computes the eight smoothed samples s of output columns [R12, R12+8)
// into Y0, as eight iterations of smoothRow's loop: each lane sums the
// column sums a, b and c (Y2) of its column's left neighbour, itself and
// its right neighbour, each c = (cur+prev)+next, then s = ((a+b)+c)*inv3.
// Each VADDPS and VMULPS takes as first source the operand the compiled Go
// loop keeps in its destination register, since x86 returns the first
// source's NaN when both are NaN. It then leaves in AX the eight mask bits
// s > t || s < -t (ordered compares: NaN is never masked) and stores |s|
// (the sign bit cleared, as math.Abs does) to out.
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

// func smoothRowAVX2(out, cur, prev, next []float32, mask []uint64, inv3, t float32) (float32, float32)
//
// smoothRow's loop over output columns [3, n-1) of an n-column row, n >= 12,
// in steps of eight from column 3, and, when n-4 is not a multiple of
// eight, one last step over [n-9, n-1), which recomputes some columns with
// the same bits. A step from column 3+8k fills mask byte k+1: the bytes
// gather in R11 (CX is the bit offset) and each word is stored whole, from
// word 0 on, since a word read back soon after byte stores would stall on
// store forwarding. The last step's bits are ORed in at bit n-4. Either
// way the last step covers column n-2, so lanes 6 and 7 of its c are the
// column sums of columns n-2 and n-1, which it returns.
TEXT ·smoothRowAVX2(SB), NOSPLIT, $0-136
	MOVQ         out_base+0(FP), DI
	MOVQ         cur_base+24(FP), SI
	MOVQ         cur_len+32(FP), BX
	MOVQ         prev_base+48(FP), R8
	MOVQ         next_base+72(FP), R9
	MOVQ         mask_base+96(FP), R10
	MOVQ         R10, R13
	VBROADCASTSS inv3+120(FP), Y7
	VBROADCASTSS t+124(FP), Y10
	MOVL         t+124(FP), AX
	XORL         $0x80000000, AX
	VMOVD        AX, X11
	VBROADCASTSS X11, Y11 // -t
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X14
	VBROADCASTSS X14, Y14 // |x| mask
	LEAQ         -4(BX), DX
	SHRQ         $3, DX   // steps from column 3
	MOVQ         $3, R12
	MOVQ         $8, CX
	XORQ         R11, R11

loop:
	STEP
	SHLQ CX, AX
	ORQ  AX, R11
	ADDQ $8, CX
	CMPQ CX, $64
	JNE  next
	MOVQ R11, (R10)
	ADDQ $8, R10
	XORQ R11, R11
	XORQ CX, CX

next:
	ADDQ  $8, R12
	DECQ  DX
	JNZ   loop
	TESTQ CX, CX
	JZ    last
	MOVQ  R11, (R10)

last:
	LEAQ -1(BX), DX
	CMPQ R12, DX
	JEQ  sums
	LEAQ -9(BX), R12
	STEP
	LEAQ -4(BX), CX // the last step's first mask bit, (n-9)+5
	MOVQ CX, DX
	SHRQ $6, DX
	ANDQ $63, CX
	MOVQ AX, R11
	SHLQ CX, R11
	ORQ  R11, (R13)(DX*8)
	CMPQ CX, $56
	JLE  sums
	NEGQ CX
	ADDQ $64, CX
	SHRQ CX, AX
	ORQ  AX, 8(R13)(DX*8)

sums:
	VEXTRACTF128 $1, Y2, X2
	VMOVHLPS     X2, X2, X2
	VMOVSS       X2, ret+128(FP)
	VPSRLQ       $32, X2, X2
	VMOVSS       X2, ret1+132(FP)
	VZEROUPPER
	RET
