#include "textflag.h"

// The AVX2 body of the code kernel (see code.go for the specification).
// VPMOVSXBW widens sixteen int8 codes of a stored row to int16, VPMADDWD
// multiplies them with sixteen int16 codes of a query row and adds adjacent
// products into eight int32 lanes, and VPADDD accumulates the lanes. No sum
// overflows (code.go), so the lanes' order of addition cannot matter.

// func codeMaxDotsAVX2(q []int16, c []int8, dim int, dots []int32, out *[4]int32)
//
// Y0..Y3 accumulate the four query rows against one stored row; the three
// VPHADDDs and one VPADDD fold their lanes into the row's four dots, in row
// order, which are stored to dots (R11, nil for none) as they stand, and
// VPMAXSD keeps the largest of each in X9, which starts at MinInt32.
TEXT ·codeMaxDotsAVX2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), AX
	MOVQ c_base+24(FP), SI
	MOVQ c_len+32(FP), BX
	MOVQ dim+48(FP), CX
	MOVQ dots_base+56(FP), R11
	MOVQ out+80(FP), DI
	ADDQ SI, BX              // end of the stored rows
	LEAQ (AX)(CX*2), R8      // query row 1
	LEAQ (R8)(CX*2), R9      // query row 2
	LEAQ (R9)(CX*2), R10     // query row 3
	VPCMPEQD X9, X9, X9
	VPSLLD $31, X9, X9       // MinInt32 in every lane
	CMPQ SI, BX
	JGE  codesDone
rowLoop:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ DX, DX
elemLoop:
	VPMOVSXBW (SI)(DX*1), Y4
	VPMADDWD (AX)(DX*2), Y4, Y5
	VPADDD Y5, Y0, Y0
	VPMADDWD (R8)(DX*2), Y4, Y6
	VPADDD Y6, Y1, Y1
	VPMADDWD (R9)(DX*2), Y4, Y7
	VPADDD Y7, Y2, Y2
	VPMADDWD (R10)(DX*2), Y4, Y8
	VPADDD Y8, Y3, Y3
	ADDQ $16, DX
	CMPQ DX, CX
	JLT  elemLoop
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	TESTQ R11, R11
	JZ   noDots
	VMOVDQU X0, (R11)
	ADDQ $16, R11
noDots:
	VPMAXSD X0, X9, X9
	ADDQ CX, SI
	CMPQ SI, BX
	JLT  rowLoop
codesDone:
	VMOVDQU X9, (DI)
	VZEROUPPER
	RET
