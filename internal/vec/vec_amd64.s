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
// reduction, then the scalar tail folded in: dotAVX2 and pruneRowsAVX2 both
// expand it, so a row of PruneRows has exactly Dot's bits. Its labels are
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

// func pruneRowsAVX2(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, rows []float32, stride int, keep []int32, c2 []float32) int
//
// PruneRows' kernel. Per id: c = 2·dotAVX2(q, row id of pre) through one
// DOT_ACC, so c has Dot's bits; then (norms[id] + qNorm) − c − bound·fac[id]
// against tau, one rounding per step as Go evaluates it, the product
// rounded on its own (VMULSS, no fused multiply-subtract). A nil fac
// subtracts bound itself: the branch on it goes the same way for every id.
// id and c are stored at keep[n] and c2[n] whatever the test says, and n
// advances by SETLS's 0 or 1 (unordered sets CF, so a NaN keeps the id). A
// kept id's round-1 lines, rows + 4·(id·stride + len(q)) and the line
// after, are prefetched; a pruned id prefetches its own entry of ids
// instead, a line already in cache, so no branch depends on the test.
// PruneRows has checked every id against norms, fac, pre and rows, and the
// room in keep and c2. Each row reloads q and the other rarely read
// arguments from the frame: DOT_ACC leaves too few registers to hold them.
TEXT ·pruneRowsAVX2(SB), NOSPLIT, $0-224
	MOVQ pre_base+24(FP), R11
	MOVQ ids_base+48(FP), R8
	MOVQ ids_len+56(FP), R9
	MOVQ keep_base+168(FP), R10
	MOVQ c2_base+192(FP), R13
	MOVQ q_len+8(FP), R12
	SHLQ $2, R12           // R12 = row stride of pre in bytes
	VMOVSS qNorm+120(FP), X8
	VMOVSS bound+124(FP), X9
	VMOVSS tau+128(FP), X10
	XORQ BX, BX            // BX = ids kept so far
	TESTQ R9, R9
	JZ   prune_done

prune_next:
	MOVL (R8), AX          // AX = id, non-negative (checked)
	MOVQ AX, DI
	IMULQ R12, DI
	ADDQ R11, DI           // DI = row id of pre
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	DOT_ACC
	VADDSS X0, X0, X0      // c = 2·dot
	MOVQ norms_base+72(FP), DX
	VMOVSS (DX)(AX*4), X1
	VADDSS X8, X1, X1      // norms[id] + qNorm
	VSUBSS X0, X1, X1      // − c
	MOVQ fac_base+96(FP), DX
	TESTQ DX, DX
	JZ   prune_nofac
	VMULSS (DX)(AX*4), X9, X2
	VSUBSS X2, X1, X1      // − bound·fac[id]
	JMP  prune_test

prune_nofac:
	VSUBSS X9, X1, X1      // − bound

prune_test:
	MOVL AX, (R10)(BX*4)   // keep[n] = id
	VMOVSS X0, (R13)(BX*4) // c2[n] = c
	XORL CX, CX
	VUCOMISS X10, X1
	SETLS CX               // CX = 1 unless X1 > tau
	MOVQ stride+160(FP), DX
	IMULQ AX, DX
	ADDQ q_len+8(FP), DX
	MOVQ rows_base+136(FP), SI
	LEAQ (SI)(DX*4), DX    // DX = coordinate len(q) of row id of rows
	TESTQ CX, CX
	CMOVQEQ R8, DX
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	ADDQ CX, BX
	ADDQ $4, R8
	DECQ R9
	JNZ  prune_next

prune_done:
	VZEROUPPER
	MOVQ BX, ret+216(FP)
	RET
