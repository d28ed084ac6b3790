//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA float32 kernels. Dot and L2Sq walk the inputs in 32-float
// blocks (four YMM accumulators hide FMA latency), then an 8-float block
// loop, then a scalar tail, so any length and any alignment is handled;
// loads are unaligned (VMOVUPS) because callers pass arbitrary subslices of
// the flat matrix. The wrappers in vec.go bounds-check b against len(a)
// before dispatch, so the assembly reads exactly len(a) floats from each
// input.

// DOT_ACC leaves in X0 the inner product of the CX floats at SI and DI,
// advancing SI and DI past them; it clobbers CX, DX and Y0–Y7. Four YMM
// accumulators over 32-float blocks, one over 8-float blocks, a fixed
// reduction, then the scalar tail folded in: dotAVX2 and dotRowsAVX2 both
// expand it, so a row of DotRows has exactly Dot's bits. Its labels are
// local to the function that expands it.
#define DOT_ACC \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	MOVQ CX, DX; \
	SHRQ $5, DX; \
	JZ   dot_tail8; \
dot_block32: \
	VMOVUPS (SI), Y4; \
	VMOVUPS 32(SI), Y5; \
	VMOVUPS 64(SI), Y6; \
	VMOVUPS 96(SI), Y7; \
	VFMADD231PS (DI), Y4, Y0; \
	VFMADD231PS 32(DI), Y5, Y1; \
	VFMADD231PS 64(DI), Y6, Y2; \
	VFMADD231PS 96(DI), Y7, Y3; \
	ADDQ $128, SI; \
	ADDQ $128, DI; \
	DECQ DX; \
	JNZ  dot_block32; \
dot_tail8: \
	ANDQ $31, CX; \
	MOVQ CX, DX; \
	SHRQ $3, DX; \
	JZ   dot_reduce; \
dot_block8: \
	VMOVUPS (SI), Y4; \
	VFMADD231PS (DI), Y4, Y0; \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	DECQ DX; \
	JNZ  dot_block8; \
dot_reduce: \
	VADDPS Y1, Y0, Y0; \
	VADDPS Y3, Y2, Y2; \
	VADDPS Y2, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPS X1, X0, X0; \
	VHADDPS X0, X0, X0; \
	VHADDPS X0, X0, X0; \
	ANDQ $7, CX; \
	JZ   dot_acc_done; \
dot_scalar: \
	VMOVSS (SI), X1; \
	VMOVSS (DI), X2; \
	VFMADD231SS X2, X1, X0; \
	ADDQ $4, SI; \
	ADDQ $4, DI; \
	DECQ CX; \
	JNZ  dot_scalar; \
dot_acc_done:

// func dotAVX2(a, b []float32) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	DOT_ACC
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func l2sqAVX2(a, b []float32) float32
TEXT ·l2sqAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   l2_tail8

l2_block32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VSUBPS (DI), Y4, Y4
	VSUBPS 32(DI), Y5, Y5
	VSUBPS 64(DI), Y6, Y6
	VSUBPS 96(DI), Y7, Y7
	VFMADD231PS Y4, Y4, Y0
	VFMADD231PS Y5, Y5, Y1
	VFMADD231PS Y6, Y6, Y2
	VFMADD231PS Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  l2_block32

l2_tail8:
	ANDQ $31, CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   l2_reduce

l2_block8:
	VMOVUPS (SI), Y4
	VSUBPS (DI), Y4, Y4
	VFMADD231PS Y4, Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  l2_block8

l2_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $7, CX
	JZ   l2_done

l2_scalar:
	VMOVSS (SI), X1
	VSUBSS (DI), X1, X1
	VFMADD231SS X1, X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  l2_scalar

l2_done:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func dotRowsAVX2(q, tab []float32, ids []int32, out []float32)
//
// out[i] = dotAVX2(q, row ids[i] of tab), rows len(q) floats apart: one
// DOT_ACC per row, so every output has Dot's bits. DotRows has checked
// each id against tab and out's length.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ tab_base+24(FP), R11
	MOVQ ids_base+48(FP), R8
	MOVQ ids_len+56(FP), R9
	MOVQ out_base+72(FP), R10
	MOVQ q_len+8(FP), R12
	SHLQ $2, R12           // R12 = row stride in bytes
	TESTQ R9, R9
	JZ   rows_done

rows_next:
	MOVL (R8), AX          // AX = ids[i], non-negative (checked)
	IMULQ R12, AX
	LEAQ (R11)(AX*1), DI   // DI = row ids[i]
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	DOT_ACC
	VMOVSS X0, (R10)
	ADDQ $4, R8
	ADDQ $4, R10
	DECQ R9
	JNZ  rows_next

rows_done:
	VZEROUPPER
	RET
