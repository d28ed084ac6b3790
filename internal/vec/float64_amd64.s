//go:build amd64 && !noasm

#include "textflag.h"

// AVX float64 row kernels. Each element is computed exactly as the scalar
// Go loop computes it: a VMULPD rounds the product, a VADDPD / VSUBPD the
// sum, with no fused multiply-add, and every element takes its terms in
// the loop's order. The lanes only run different elements side by side.
// Loads are unaligned (callers pass subslices of matrix rows); the Go
// wrappers in float64.go check every length before dispatch.

// func axpyRows64AVX2(y, a []float64, x [][]float64)
//
// y[j] += a[0]·x[0][j], then += a[1]·x[1][j], …: 8 elements of y stay in
// two YMM registers while every row's terms are added to them, so y is
// read and written once per call, not once per row.
TEXT ·axpyRows64AVX2(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ x_base+48(FP), R9
	TESTQ R8, R8
	JZ   axpy_done
	XORQ AX, AX            // AX = byte offset of the current element
	MOVQ CX, DX
	SHRQ $3, DX            // DX = number of 8-element blocks
	JZ   axpy_tail4

axpy_block8:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	MOVQ SI, R10           // R10 = &a[r]
	MOVQ R9, R11           // R11 = &x[r]
	MOVQ R8, R12           // R12 = rows left

axpy_rows8:
	VBROADCASTSD (R10), Y2
	MOVQ (R11), R13        // R13 = x[r]'s base
	VMULPD (R13)(AX*1), Y2, Y3
	VMULPD 32(R13)(AX*1), Y2, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $8, R10
	ADDQ $24, R11
	DECQ R12
	JNZ  axpy_rows8
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	DECQ DX
	JNZ  axpy_block8

axpy_tail4:
	TESTQ $4, CX
	JZ   axpy_tail1
	VMOVUPD (DI)(AX*1), Y0
	MOVQ SI, R10
	MOVQ R9, R11
	MOVQ R8, R12

axpy_rows4:
	VBROADCASTSD (R10), Y2
	MOVQ (R11), R13
	VMULPD (R13)(AX*1), Y2, Y3
	VADDPD Y3, Y0, Y0
	ADDQ $8, R10
	ADDQ $24, R11
	DECQ R12
	JNZ  axpy_rows4
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX

axpy_tail1:
	ANDQ $3, CX            // CX = scalar tail length
	JZ   axpy_done

axpy_elem:
	VMOVSD (DI)(AX*1), X0
	MOVQ SI, R10
	MOVQ R9, R11
	MOVQ R8, R12

axpy_rows1:
	VMOVSD (R10), X2
	MOVQ (R11), R13
	VMULSD (R13)(AX*1), X2, X3
	VADDSD X3, X0, X0
	ADDQ $8, R10
	ADDQ $24, R11
	DECQ R12
	JNZ  axpy_rows1
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JNZ  axpy_elem

axpy_done:
	VZEROUPPER
	RET

// func rot64AVX2(x, y []float64, c, s float64)
//
// x[j], y[j] = c·x[j] − s·y[j], s·x[j] + c·y[j], 8 elements per step.
TEXT ·rot64AVX2(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	MOVQ CX, DX
	SHRQ $3, DX            // DX = number of 8-element blocks
	JZ   rot_tail4

rot_block8:
	VMOVUPD (SI), Y2       // x
	VMOVUPD (DI), Y3       // y
	VMOVUPD 32(SI), Y8
	VMOVUPD 32(DI), Y9
	VMULPD Y2, Y1, Y4      // s·x
	VMULPD Y3, Y0, Y5      // c·y
	VMULPD Y2, Y0, Y6      // c·x
	VMULPD Y3, Y1, Y7      // s·y
	VMULPD Y8, Y1, Y10
	VMULPD Y9, Y0, Y11
	VMULPD Y8, Y0, Y12
	VMULPD Y9, Y1, Y13
	VADDPD Y5, Y4, Y4      // s·x + c·y
	VSUBPD Y7, Y6, Y6      // c·x − s·y
	VADDPD Y11, Y10, Y10
	VSUBPD Y13, Y12, Y12
	VMOVUPD Y4, (DI)
	VMOVUPD Y6, (SI)
	VMOVUPD Y10, 32(DI)
	VMOVUPD Y12, 32(SI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  rot_block8

rot_tail4:
	TESTQ $4, CX
	JZ   rot_tail1
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD Y2, Y1, Y4
	VMULPD Y3, Y0, Y5
	VMULPD Y2, Y0, Y6
	VMULPD Y3, Y1, Y7
	VADDPD Y5, Y4, Y4
	VSUBPD Y7, Y6, Y6
	VMOVUPD Y4, (DI)
	VMOVUPD Y6, (SI)
	ADDQ $32, SI
	ADDQ $32, DI

rot_tail1:
	ANDQ $3, CX
	JZ   rot_done

rot_elem:
	VMOVSD (SI), X2
	VMOVSD (DI), X3
	VMULSD X2, X1, X4
	VMULSD X3, X0, X5
	VMULSD X2, X0, X6
	VMULSD X3, X1, X7
	VADDSD X5, X4, X4
	VSUBSD X7, X6, X6
	VMOVSD X4, (DI)
	VMOVSD X6, (SI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  rot_elem

rot_done:
	VZEROUPPER
	RET
