#include "textflag.h"

// The AVX2 body of the cosine kernel (see dot.go for the specification).
// Only VBROADCASTSD, VMULPD and VADDPD touch the data: each lane multiplies,
// rounds, then adds, in element order, exactly as the generic body does.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// CPUID.1:ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0:EBX bit 5 (AVX2), if leaf 7 exists.
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// TILEROW broadcasts element k of the row at byte offset off of the row
// panel's group k into b and adds its products with the two column panels
// (Y12, Y13) into the row's two accumulators.
#define TILEROW(off, b, p0, p1, acc0, acc1) \
	VBROADCASTSD off(AX)(DX*1), b \
	VMULPD Y12, b, p0               \
	VADDPD p0, acc0, acc0           \
	VMULPD Y13, b, p1               \
	VADDPD p1, acc1, acc1

// func dotTileAVX2(a, b []float64, dim int, out *[32]float64)
//
// Y(2r) and Y(2r+1) accumulate row r of the row panel a against the first
// and second column panel of b; element k of every panel is at byte offset
// 32k, so one index walks all three.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), AX
	MOVQ b_base+24(FP), R8
	MOVQ dim+48(FP), CX
	MOVQ out+56(FP), DI
	SHLQ $5, CX              // bytes in a panel, and the end offset
	LEAQ (R8)(CX*1), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ DX, DX
	CMPQ DX, CX
	JGE  panelsDone
panelsLoop:
	VMOVUPD (R8)(DX*1), Y12
	VMOVUPD (R9)(DX*1), Y13
	TILEROW(0, Y8, Y14, Y15, Y0, Y1)
	TILEROW(8, Y9, Y10, Y11, Y2, Y3)
	TILEROW(16, Y8, Y14, Y15, Y4, Y5)
	TILEROW(24, Y9, Y10, Y11, Y6, Y7)
	ADDQ $32, DX
	CMPQ DX, CX
	JLT  panelsLoop
panelsDone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func dotColsAVX2(q, c0, c1, c2, c3 []float64, out *[16]float64)
//
// Y0..Y3 accumulate the four stored rows; each lane is one row of the panel.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), AX
	MOVQ c0_base+24(FP), R8
	MOVQ c0_len+32(FP), CX
	MOVQ c1_base+48(FP), R9
	MOVQ c2_base+72(FP), R10
	MOVQ c3_base+96(FP), R11
	MOVQ out+120(FP), DI
	SHLQ $3, CX              // bytes in a stored row
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ DX, DX
	CMPQ DX, CX
	JGE  colsDone
colsLoop:
	VMOVUPD (AX)(DX*4), Y4
	VBROADCASTSD (R8)(DX*1), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD (R9)(DX*1), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD (R10)(DX*1), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD (R11)(DX*1), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  colsLoop
colsDone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
