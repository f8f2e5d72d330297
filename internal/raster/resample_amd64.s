#include "textflag.h"

// The resample kernels' AVX2 bodies. Each IEEE operation is one of the Go
// body's, in its order, and none is fused. Where both operands can be NaN,
// the first source is the operand the compiled Go body keeps in its
// destination register, since x86 returns the first source's NaN: the left
// one everywhere but integrateRows' s + f*v, which Go evaluates into the
// product's register. The *MatchesGoBody tests pin every payload against
// the normal build of the Go bodies.

// func blendRowAVX2(out, row []float32, i0, i1 []int32, f []float32)
//
// out[dx] = v0 + (v1-v0)*f[dx], v0 and v1 gathered from row at i0[dx] and
// i1[dx], eight columns per iteration.
TEXT ·blendRowAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ row_base+24(FP), SI
	MOVQ i0_base+48(FP), R8
	MOVQ i1_base+72(FP), R9
	MOVQ f_base+96(FP), R10
	SHRQ $3, CX
	JZ   blendDone

blendLoop:
	VMOVDQU    (R8), Y1
	VMOVDQU    (R9), Y2
	VPCMPEQD   Y3, Y3, Y3
	VXORPS     Y4, Y4, Y4
	VGATHERDPS Y3, (SI)(Y1*4), Y4
	VPCMPEQD   Y3, Y3, Y3
	VXORPS     Y5, Y5, Y5
	VGATHERDPS Y3, (SI)(Y2*4), Y5
	VSUBPS     Y4, Y5, Y5
	VMULPS     (R10), Y5, Y5
	VADDPS     Y5, Y4, Y4
	VMOVUPS    Y4, (DI)
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, DI
	DECQ       CX
	JNZ        blendLoop

blendDone:
	VZEROUPPER
	RET

// func lerpRowAVX2(out, tops, bots []float32, fy float32)
//
// out[dx] = top + (bot-top)*fy, eight columns per iteration.
TEXT ·lerpRowAVX2(SB), NOSPLIT, $0-76
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         tops_base+24(FP), SI
	MOVQ         bots_base+48(FP), DX
	VBROADCASTSS fy+72(FP), Y0
	SHRQ         $3, CX
	JZ           lerpDone

lerpLoop:
	VMOVUPS (SI), Y1
	VMOVUPS (DX), Y2
	VSUBPS  Y1, Y2, Y2
	VMULPS  Y0, Y2, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     lerpLoop

lerpDone:
	VZEROUPPER
	RET

// func boxColsAVX2(out []float32, ints []float64, taps []boxTap, inv []float64, invY float64)
//
// Per column: acc = +0, then acc + wy*ints[off+dx] for each tap in order,
// then float32(acc*inv[dx]*invY); eight columns per iteration in two
// accumulators, then four if len(out)%8 is 4. A boxTap is {off int; wy
// float64}, 16 bytes.
TEXT ·boxColsAVX2(SB), NOSPLIT, $0-104
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         ints_base+24(FP), SI
	MOVQ         taps_base+48(FP), R8
	MOVQ         taps_len+56(FP), R9
	MOVQ         inv_base+72(FP), DX
	VBROADCASTSD invY+96(FP), Y7
	MOVQ         CX, BX
	SHRQ         $3, CX
	JZ           boxColsFour

boxColsLoop:
	VXORPD Y0, Y0, Y0
	VXORPD Y3, Y3, Y3
	MOVQ   R8, R10
	MOVQ   R9, R11

boxColsTap:
	MOVQ         0(R10), AX
	VBROADCASTSD 8(R10), Y1
	VMULPD       (SI)(AX*8), Y1, Y2
	VMULPD       32(SI)(AX*8), Y1, Y4
	VADDPD       Y2, Y0, Y0
	VADDPD       Y4, Y3, Y3
	ADDQ         $16, R10
	DECQ         R11
	JNZ          boxColsTap

	VMULPD     (DX), Y0, Y0
	VMULPD     32(DX), Y3, Y3
	VMULPD     Y7, Y0, Y0
	VMULPD     Y7, Y3, Y3
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y3, X3
	VMOVUPS    X0, (DI)
	VMOVUPS    X3, 16(DI)
	ADDQ       $64, SI
	ADDQ       $64, DX
	ADDQ       $32, DI
	DECQ       CX
	JNZ        boxColsLoop

boxColsFour:
	TESTQ $4, BX
	JZ    boxColsDone
	VXORPD Y0, Y0, Y0
	MOVQ   R8, R10
	MOVQ   R9, R11

boxColsTap4:
	MOVQ         0(R10), AX
	VBROADCASTSD 8(R10), Y1
	VMULPD       (SI)(AX*8), Y1, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         $16, R10
	DECQ         R11
	JNZ          boxColsTap4

	VMULPD     (DX), Y0, Y0
	VMULPD     Y7, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)

boxColsDone:
	VZEROUPPER
	RET

// COLUMN sets dst to column col of the four rows (at SI, R13, R14 and R15)
// as float64 lanes: four loads, then VCVTPS2PD (exact, and it keeps a NaN's
// payload as the Go conversion does).
#define COLUMN(col, dst) \
	VMOVSS    (SI)(col*4), X1;             \
	VINSERTPS $0x10, (R13)(col*4), X1, X1; \
	VINSERTPS $0x20, (R14)(col*4), X1, X1; \
	VINSERTPS $0x30, (R15)(col*4), X1, X1; \
	VCVTPS2PD X1, dst

// func integrateRows4AVX2(out []float64, rows []float32, stride int, edges []boxEdge)
//
// integrateRowsGo's chain in four float64 lanes, lane j being row j: s is the
// prefix sum of the columns before x, c the integral up to the last edge,
// and each edge k+1 stores n - c with n = s + f*v at out[j*w+k]. A boxEdge
// is {i int; f float64}, 16 bytes.
TEXT ·integrateRows4AVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ stride+48(FP), AX
	MOVQ edges_base+56(FP), R8
	MOVQ edges_len+64(FP), R9

	SHLQ $2, AX
	LEAQ (SI)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	LEAQ (R14)(AX*1), R15

	// Row j's outputs start j*w float64s into out, w = len(edges)-1.
	LEAQ -1(R9), BX
	SHLQ $3, BX
	LEAQ (DI)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12

	// Y1 holds column x throughout; x only grows, and it meets each edge's
	// column exactly (edges[0].i is 0 and the columns never decrease), so
	// every column is gathered once. c = s + f*v at edge 0, with s = +0.
	VXORPD       Y0, Y0, Y0
	XORQ         CX, CX
	COLUMN(CX, Y1)
	VBROADCASTSD 8(R8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y0, Y2, Y3
	ADDQ         $16, R8
	DECQ         R9
	JZ           integrateDone
	XORQ         DX, DX

integrateEdge:
	MOVQ 0(R8), AX

integrateCol:
	CMPQ   CX, AX
	JGE    integrateEval
	VADDPD Y1, Y0, Y0
	INCQ   CX
	COLUMN(CX, Y1)
	JMP    integrateCol

integrateEval:
	VBROADCASTSD 8(R8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y0, Y2, Y4
	VSUBPD       Y3, Y4, Y5
	VMOVAPD      Y4, Y3
	VMOVSD       X5, (DI)(DX*8)
	VMOVHPD      X5, (R10)(DX*8)
	VEXTRACTF128 $1, Y5, X5
	VMOVSD       X5, (R11)(DX*8)
	VMOVHPD      X5, (R12)(DX*8)
	INCQ         DX
	ADDQ         $16, R8
	DECQ         R9
	JNZ          integrateEdge

integrateDone:
	VZEROUPPER
	RET

// BLENDWIN sets K2 and K3 to the lanes of row[AX:AX+16] and
// row[AX+16:AX+32] that lie inside the row (R11 samples), and loads those
// 32 samples into Z0 and Z1, zero elsewhere; masked lanes never touch
// memory. Clobbers CX, DX and R12.
#define BLENDWIN \
	MOVQ      R11, DX;             \
	SUBQ      AX, DX;              \
	MOVQ      $32, R12;            \
	CMPQ      DX, R12;             \
	CMOVQGT   R12, DX;             \
	MOVQ      DX, CX;              \
	MOVQ      $1, R12;             \
	SHLQ      CX, R12;             \
	DECQ      R12;                 \
	KMOVW     R12, K2;             \
	SHRQ      $16, R12;            \
	KMOVW     R12, K3;             \
	VMOVUPS.Z (SI)(AX*4), K2, Z0;  \
	VMOVUPS.Z 64(SI)(AX*4), K3, Z1

// func blendRowAVX512(out, row []float32, i0, i1 []int32, f []float32)
//
// blendRowGo over every column, sixteen per step. A step's taps lie in
// row[base:], base = i0 of its first column (the taps never decrease), so
// while its last i1 is at most base+31 the step loads the 32 samples from
// base as two zmm (masked to the row's end) and picks v0 and v1 with one
// VPERMI2PS each at i0-base and i1-base. A step whose taps span more (a
// column shrink beyond about 2x) gathers them instead. The last len%16
// columns run one more step, their loads and stores masked to them (K5).
// Then out = v0 + (v1-v0)*f, as blendRowAVX2.
TEXT ·blendRowAVX512(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R13
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), R11
	MOVQ i0_base+48(FP), R8
	MOVQ i1_base+72(FP), R9
	MOVQ f_base+96(FP), R10
	MOVQ R13, BX
	ANDQ $15, BX            // the masked step's columns
	SHRQ $4, R13            // steps of sixteen
	JZ   blend16Tail

blend16Loop:
	MOVL (R8), AX           // base
	MOVL 60(R9), DX         // the step's last i1
	SUBL AX, DX
	CMPL DX, $31
	JA   blend16Gather
	BLENDWIN
	VPBROADCASTD AX, Z2
	VMOVDQU32    (R8), Z3
	VMOVDQU32    (R9), Z4
	VPSUBD       Z2, Z3, Z3
	VPSUBD       Z2, Z4, Z4
	VPERMI2PS    Z1, Z0, Z3 // v0
	VPERMI2PS    Z1, Z0, Z4 // v1

blend16Mix:
	VSUBPS  Z3, Z4, Z4
	VMULPS  (R10), Z4, Z4
	VADDPS  Z4, Z3, Z3
	VMOVUPS Z3, (DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, DI
	DECQ    R13
	JNZ     blend16Loop
	JMP     blend16Tail

blend16Gather:
	VMOVDQU32  (R8), Z5
	VMOVDQU32  (R9), Z6
	KXNORW     K4, K4, K4
	VGATHERDPS (SI)(Z5*4), K4, Z3
	KXNORW     K4, K4, K4
	VGATHERDPS (SI)(Z6*4), K4, Z4
	JMP        blend16Mix

blend16Tail:
	TESTQ BX, BX
	JZ    blend16Done
	MOVQ  BX, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K5
	MOVL  (R8), AX
	MOVL  -4(R9)(BX*4), DX
	SUBL  AX, DX
	CMPL  DX, $31
	JA    blend16TailGather
	BLENDWIN
	VPBROADCASTD AX, Z2
	VMOVDQU32.Z  (R8), K5, Z3
	VMOVDQU32.Z  (R9), K5, Z4
	VPSUBD       Z2, Z3, Z3
	VPSUBD       Z2, Z4, Z4
	VPERMI2PS    Z1, Z0, Z3
	VPERMI2PS    Z1, Z0, Z4

blend16TailMix:
	VMOVUPS.Z (R10), K5, Z5
	VSUBPS    Z3, Z4, Z4
	VMULPS    Z5, Z4, Z4
	VADDPS    Z4, Z3, Z3
	VMOVUPS   Z3, K5, (DI)

blend16Done:
	VZEROUPPER
	RET

blend16TailGather:
	VMOVDQU32.Z (R8), K5, Z5
	VMOVDQU32.Z (R9), K5, Z6
	KMOVW       K5, K4
	VGATHERDPS  (SI)(Z5*4), K4, Z3
	KMOVW       K5, K4
	VGATHERDPS  (SI)(Z6*4), K4, Z4
	JMP         blend16TailMix
