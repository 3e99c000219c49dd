#include "textflag.h"

// The AVX2 bodies of the cluster kernels (see nnchain.go for the
// specification).

DATA nnInf<>+0(SB)/4, $0x7f800000
GLOBL nnInf<>(SB), RODATA|NOPTR, $4

// func nearestAVX2(row, mask []float32) int
//
// The first pass keeps in Y0 the lane-wise minimum of row+mask. VMINPS
// returns its first source (Go's second operand) only if that is strictly
// less, and its second otherwise, so with the candidate first a NaN sum never
// displaces the minimum. The second pass returns the first slot whose sum
// equals the minimum; EQ is ordered, so a NaN sum never matches.
TEXT ·nearestAVX2(SB), NOSPLIT, $0-56
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ mask_base+24(FP), DI
	VBROADCASTSS nnInf<>(SB), Y0
	SHLQ $2, CX              // bytes in the row, and the end offset
	XORQ DX, DX
	CMPQ DX, CX
	JGE  none
minLoop:
	VMOVUPS (SI)(DX*1), Y1
	VADDPS  (DI)(DX*1), Y1, Y1
	VMINPS  Y0, Y1, Y0       // Y0 = Y1 < Y0 ? Y1 : Y0
	ADDQ $32, DX
	CMPQ DX, CX
	JLT  minLoop
	VEXTRACTF128 $1, Y0, X1  // fold the eight lanes into every lane of X0
	VMINPS X1, X0, X0
	VPERMILPS $0x4e, X0, X1
	VMINPS X1, X0, X0
	VPERMILPS $0xb1, X0, X1
	VMINPS X1, X0, X0
	VUCOMISS nnInf<>(SB), X0
	JEQ  none                // no sum below +Inf
	VBROADCASTSS X0, Y0
	XORQ DX, DX
eqLoop:
	VMOVUPS (SI)(DX*1), Y1
	VADDPS  (DI)(DX*1), Y1, Y1
	VCMPPS  $0, Y1, Y0, Y2   // Y2 = Y0 == Y1
	VMOVMSKPS Y2, AX
	TESTL AX, AX
	JNZ  found
	ADDQ $32, DX
	CMPQ DX, CX
	JLT  eqLoop
none:
	MOVQ $-1, ret+48(FP)
	VZEROUPPER
	RET
found:
	BSFL AX, AX
	SHRQ $2, DX
	ADDQ DX, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func averageAVX2(rowA, rowB []float32, wa, wb float64)
TEXT ·averageAVX2(SB), NOSPLIT, $0-64
	MOVQ rowA_base+0(FP), DI
	MOVQ rowA_len+8(FP), CX
	MOVQ rowB_base+24(FP), SI
	VBROADCASTSD wa+48(FP), Y0
	VBROADCASTSD wb+56(FP), Y1
	SHRQ $2, CX
	JZ   averageDone
averageLoop:
	VCVTPS2PD (DI), Y2       // exact
	VCVTPS2PD (SI), Y3
	VMULPD Y0, Y2, Y2        // wa*rowA[k], rounded
	VMULPD Y1, Y3, Y3        // wb*rowB[k], rounded
	VADDPD Y3, Y2, Y2        // then added: no FMA
	VCVTPD2PSY Y2, X2        // rounded once to float32
	VMOVUPS X2, (DI)
	ADDQ $16, DI
	ADDQ $16, SI
	DECQ CX
	JNZ  averageLoop
averageDone:
	VZEROUPPER
	RET
