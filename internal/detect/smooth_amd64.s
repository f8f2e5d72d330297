#include "textflag.h"

// VPERMPS indices rotating eight lanes up by one and by two.
DATA smoothRot<>+0(SB)/4, $7
DATA smoothRot<>+4(SB)/4, $0
DATA smoothRot<>+8(SB)/4, $1
DATA smoothRot<>+12(SB)/4, $2
DATA smoothRot<>+16(SB)/4, $3
DATA smoothRot<>+20(SB)/4, $4
DATA smoothRot<>+24(SB)/4, $5
DATA smoothRot<>+28(SB)/4, $6
DATA smoothRot<>+32(SB)/4, $6
DATA smoothRot<>+36(SB)/4, $7
DATA smoothRot<>+40(SB)/4, $0
DATA smoothRot<>+44(SB)/4, $1
DATA smoothRot<>+48(SB)/4, $2
DATA smoothRot<>+52(SB)/4, $3
DATA smoothRot<>+56(SB)/4, $4
DATA smoothRot<>+60(SB)/4, $5
GLOBL smoothRot<>(SB), RODATA|NOPTR, $64

// func smoothRowAVX2(out, cur, prev, next []float32, a, b, inv3 float32) (float32, float32)
//
// Eight iterations of smoothRow's loop per step. C holds the step's column
// sums c = (cur+prev)+next; lanes 6 and 7 of P hold the two sums before them
// (a and b on entry), so the step's a and b are C rotated up by two and one
// with P's last lanes blended in, and out = ((a+b)+c)*inv3. Each VADDPS and
// VMULPS takes as first source the operand the compiled Go loop keeps in its
// destination register, since x86 returns the first source's NaN when both
// are NaN.
TEXT ·smoothRowAVX2(SB), NOSPLIT, $0-120
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         cur_base+24(FP), SI
	MOVQ         prev_base+48(FP), R8
	MOVQ         next_base+72(FP), R9
	VBROADCASTSS a+96(FP), Y4
	VBROADCASTSS b+100(FP), Y5
	VBLENDPS     $0x80, Y5, Y4, Y4 // P: a in lane 6, b in lane 7
	VBROADCASTSS inv3+104(FP), Y7
	VMOVUPS      smoothRot<>+0(SB), Y8
	VMOVUPS      smoothRot<>+32(SB), Y9
	SHRQ         $3, CX
	JZ           done
	VPERMPS      Y4, Y8, Y5 // P rotated up by one
	VPERMPS      Y4, Y9, Y6 // P rotated up by two

loop:
	VMOVUPS (SI), Y0
	VADDPS  (R8), Y0, Y0
	VADDPS  (R9), Y0, Y0       // C
	VPERMPS Y0, Y8, Y1         // C rotated up by one
	VPERMPS Y0, Y9, Y2         // C rotated up by two
	VBLENDPS $0x01, Y5, Y1, Y3 // b lanes: P7, C0..C6
	VBLENDPS $0x03, Y6, Y2, Y4 // a lanes: P6, P7, C0..C5
	VADDPS  Y3, Y4, Y4
	VADDPS  Y0, Y4, Y4
	VMULPS  Y7, Y4, Y4
	VMOVUPS Y4, (DI)
	VMOVAPS Y1, Y5
	VMOVAPS Y2, Y6
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

	// The last step's C6 and C7 are lanes 0 and 1 of C rotated up by two.
	VMOVSS  X6, ret+112(FP)
	VPSRLQ  $32, X6, X6
	VMOVSS  X6, ret1+116(FP)
	VZEROUPPER
	RET

done:
	VMOVSS X4, ret+112(FP)
	VMOVSS X5, ret1+116(FP)
	VZEROUPPER
	RET
