#include "textflag.h"

// The AVX2 body of the encode kernel (see encode.go for the specification).
// Each instruction that touches a float is the IEEE operation the generic
// body's Go statement compiles to, on four elements at once.

DATA encodeMask16<>+0(SB)/8, $0xffff
GLOBL encodeMask16<>(SB), RODATA|NOPTR, $8
DATA encodeTwo52<>+0(SB)/8, $4503599627370496.0
GLOBL encodeTwo52<>(SB), RODATA|NOPTR, $8
DATA encodeLaneMax<>+0(SB)/8, $65535.0
GLOBL encodeLaneMax<>(SB), RODATA|NOPTR, $8
DATA encodeHalf<>+0(SB)/8, $0.5
GLOBL encodeHalf<>(SB), RODATA|NOPTR, $8
DATA encodeSqrt3<>+0(SB)/8, $1.7320508075688772 // math.Sqrt(3)
GLOBL encodeSqrt3<>(SB), RODATA|NOPTR, $8

// SPLITMIX advances the state in AX and leaves the scrambled word in z.
#define SPLITMIX(z, t) \
	ADDQ  R8, AX  \
	MOVQ  AX, z   \
	MOVQ  AX, t   \
	SHRQ  $30, t  \
	XORQ  t, z    \
	IMULQ R9, z   \
	MOVQ  z, t    \
	SHRQ  $27, t  \
	XORQ  t, z    \
	IMULQ R10, z  \
	MOVQ  z, t    \
	SHRQ  $31, t  \
	XORQ  t, z

// LANE converts the 16-bit integers in the lanes of x to float64 exactly
// (their bits under the exponent of 2^52, minus 2^52), divides by 65535,
// subtracts 0.5 and adds the result to the running s in Y5.
#define LANE(x) \
	VPOR   Y14, x, x   \
	VSUBPD Y14, x, x   \
	VDIVPD Y13, x, x   \
	VSUBPD Y12, x, x   \
	VADDPD x, Y5, Y5

// func gaussFillAVX2(state uint64, out []float64) (next uint64, sum float64)
//
// Y0 holds the z words of four consecutive elements; X10 is the running sum
// of squares, fed one element at a time.
TEXT ·gaussFillAVX2(SB), NOSPLIT, $0-48
	MOVQ state+0(FP), AX
	MOVQ out_base+8(FP), DI
	MOVQ out_len+16(FP), CX
	MOVQ $0x9e3779b97f4a7c15, R8
	MOVQ $0xbf58476d1ce4e5b9, R9
	MOVQ $0x94d049bb133111eb, R10
	VPBROADCASTQ encodeMask16<>(SB), Y15
	VBROADCASTSD encodeTwo52<>(SB), Y14
	VBROADCASTSD encodeLaneMax<>(SB), Y13
	VBROADCASTSD encodeHalf<>(SB), Y12
	VBROADCASTSD encodeSqrt3<>(SB), Y11
	VXORPD X10, X10, X10
	SHRQ $2, CX
	JZ   fillDone
fillLoop:
	SPLITMIX(BX, DX)
	SPLITMIX(SI, DX)
	SPLITMIX(R11, DX)
	SPLITMIX(R12, DX)
	VMOVQ       BX, X0
	VPINSRQ     $1, SI, X0, X0
	VMOVQ       R11, X1
	VPINSRQ     $1, R12, X1, X1
	VINSERTI128 $1, X1, Y0, Y0
	VPAND  Y15, Y0, Y1
	VPSRLQ $16, Y0, Y2
	VPAND  Y15, Y2, Y2
	VPSRLQ $32, Y0, Y3
	VPAND  Y15, Y3, Y3
	VPSRLQ $48, Y0, Y4
	VXORPD Y5, Y5, Y5        // s = +0
	LANE(Y1)
	LANE(Y2)
	LANE(Y3)
	LANE(Y4)
	VMULPD  Y11, Y5, Y5
	VMOVUPD Y5, (DI)
	VMULPD  Y5, Y5, Y6       // the four squares
	VADDSD  X6, X10, X10
	VPERMILPD $1, X6, X7
	VADDSD  X7, X10, X10
	VEXTRACTF128 $1, Y6, X6
	VADDSD  X6, X10, X10
	VPERMILPD $1, X6, X7
	VADDSD  X7, X10, X10
	ADDQ $32, DI
	DECQ CX
	JNZ  fillLoop
fillDone:
	MOVQ   AX, next+32(FP)
	VMOVSD X10, sum+40(FP)
	VZEROUPPER
	RET

// func addScaledAVX2(dst, src []float64, s float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	SHRQ $2, CX
	JZ   addDone
addLoop:
	VMULPD  (SI), Y0, Y1     // rounded, then added: no FMA
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  addLoop
addDone:
	VZEROUPPER
	RET

// func divAVX2(v []float64, n float64)
TEXT ·divAVX2(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	VBROADCASTSD n+24(FP), Y0
	SHRQ $2, CX
	JZ   divDone
divLoop:
	VMOVUPD (DI), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  divLoop
divDone:
	VZEROUPPER
	RET
