//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA float32 kernels. Dot and L2Sq walk the inputs in 32-float
// blocks (four YMM accumulators hide FMA latency), then an 8-float block
// loop, then a scalar tail, so any length and any alignment is handled;
// loads are unaligned (VMOVUPS) because callers pass arbitrary subslices of
// the flat matrix. The wrappers in vec.go bounds-check b against len(a)
// before dispatch, so the assembly reads exactly len(a) floats from each
// input.

// func dotAVX2(a, b []float32) float32
//
// PruneRows' Go loop takes each row's inner product here, so a row it
// decides has exactly Dot's bits.
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   dot_tail8

dot_block32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  dot_block32

dot_tail8:
	ANDQ $31, CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   dot_reduce

dot_block8:
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  dot_block8

dot_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $7, CX
	JZ   dot_done

dot_scalar:
	VMOVSS (SI), X1
	VMOVSS (DI), X2
	VFMADD231SS X2, X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dot_scalar

dot_done:
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

// The 8-id body of pruneRowsAVX2, for prefix widths 32 and 64 with q held
// in Y8–Y11 (and Y12–Y15 at 64). ROW_FMA32 fills Y0–Y3 for the row of pre
// whose id is at off(R8) exactly as dotAVX2's block32 loop does (zeroed,
// then one FMA each per 32 floats); ROW_FMA64 runs the second block32
// iteration. ROW_SUM folds them into dst as dot_reduce does. PAIR_FOLD takes
// rows k (Y4) and k+4 (Y0) to one vector of their lo+hi halves, row k in
// the low lane: dot_reduce's VEXTRACTF128 / VADDPS for two rows at once.
// Three VHADDPS then finish all 8 sums in Dot's pairing, so each keeps Dot's
// bits. They clobber AX, Y0–Y3 (and Y4 / Y0 by their dst).
#define ROW_FMA32(off, shift) \
	MOVL off(R8), AX; \
	SHLQ $shift, AX; \
	ADDQ R11, AX; \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VFMADD231PS (AX), Y8, Y0; \
	VFMADD231PS 32(AX), Y9, Y1; \
	VFMADD231PS 64(AX), Y10, Y2; \
	VFMADD231PS 96(AX), Y11, Y3

#define ROW_FMA64(off) \
	ROW_FMA32(off, 8); \
	VFMADD231PS 128(AX), Y12, Y0; \
	VFMADD231PS 160(AX), Y13, Y1; \
	VFMADD231PS 192(AX), Y14, Y2; \
	VFMADD231PS 224(AX), Y15, Y3

#define ROW_SUM(dst) \
	VADDPS Y1, Y0, Y0; \
	VADDPS Y3, Y2, Y2; \
	VADDPS Y2, Y0, dst

#define PAIR_FOLD(dst) \
	VPERM2F128 $0x20, Y0, Y4, Y1; \
	VPERM2F128 $0x31, Y0, Y4, Y2; \
	VADDPS Y2, Y1, dst

// LOAD8 fills ylo with base[id] for the group's 8 ids, lane i from
// ids[i]: scalar loads, not VGATHERDPS, which Gather Data Sampling
// microcode slows on many Intel parts. It clobbers AX and xhi.
#define LOAD8(base, xlo, xhi, ylo) \
	MOVL (R8), AX; \
	VMOVSS (base)(AX*4), xlo; \
	MOVL 4(R8), AX; \
	VINSERTPS $0x10, (base)(AX*4), xlo, xlo; \
	MOVL 8(R8), AX; \
	VINSERTPS $0x20, (base)(AX*4), xlo, xlo; \
	MOVL 12(R8), AX; \
	VINSERTPS $0x30, (base)(AX*4), xlo, xlo; \
	MOVL 16(R8), AX; \
	VMOVSS (base)(AX*4), xhi; \
	MOVL 20(R8), AX; \
	VINSERTPS $0x10, (base)(AX*4), xhi, xhi; \
	MOVL 24(R8), AX; \
	VINSERTPS $0x20, (base)(AX*4), xhi, xhi; \
	MOVL 28(R8), AX; \
	VINSERTPS $0x30, (base)(AX*4), xhi, xhi; \
	VINSERTF128 $1, xhi, ylo, ylo

// func pruneRowsAVX2(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, next []float32, stride int, keep []int32, c2 []float32) int
//
// PruneRows' kernel on amd64, for len(q) 32 or 64 and len(ids) a positive
// multiple of 8; the Go loop decides every other id (see pruneRowsImpl in
// dispatch_amd64.go). It decides 8 ids a step: the 8 inner products as
// above (c = their doubles, Dot's bits), then
// (norms[id] + qNorm) − c − bound·fac[id] for all 8 in one vector pass, one
// rounding per step as Go evaluates it, the product rounded on its own
// (VMULPS, no fused multiply-subtract; a nil fac subtracts bound itself),
// and one VCMPPS NGT_UQ against tau (a NaN keeps the id). The 8-bit mask
// picks a row of pruneCompact, whose VPERMD / VPERMPS pack the kept ids and
// their c to the front of an 8-wide store at keep[n] and c2[n]; n is at
// most the group's start, so no store reaches keep[len(ids)]. A BSF loop
// over the mask counts the kept ids and prefetches each one's next two
// lines, next + 4·id·stride and the line after.
//
// PruneRows has checked every id against norms, fac, pre and next, and the
// room in keep and c2.
TEXT ·pruneRowsAVX2(SB), NOSPLIT, $0-224
	MOVQ pre_base+24(FP), R11
	MOVQ ids_base+48(FP), R8
	MOVQ ids_len+56(FP), R9
	MOVQ keep_base+168(FP), R10
	MOVQ c2_base+192(FP), R13
	MOVQ next_base+136(FP), R14
	MOVQ q_len+8(FP), R12
	SHLQ $2, R12           // R12 = row stride of pre in bytes
	XORQ BX, BX            // BX = ids kept so far
	MOVQ q_base+0(FP), SI
	CMPQ R12, $128
	JEQ  group_q32
	VMOVUPS 128(SI), Y12
	VMOVUPS 160(SI), Y13
	VMOVUPS 192(SI), Y14
	VMOVUPS 224(SI), Y15

group_q32:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VMOVUPS 64(SI), Y10
	VMOVUPS 96(SI), Y11
	LEAQ ·pruneCompact(SB), SI

group_next:
	CMPQ R12, $128
	JEQ  group_w32
	ROW_FMA64(0)
	ROW_SUM(Y4)
	ROW_FMA64(16)
	ROW_SUM(Y0)
	PAIR_FOLD(Y5)
	ROW_FMA64(4)
	ROW_SUM(Y4)
	ROW_FMA64(20)
	ROW_SUM(Y0)
	PAIR_FOLD(Y6)
	VHADDPS Y6, Y5, Y5
	ROW_FMA64(8)
	ROW_SUM(Y4)
	ROW_FMA64(24)
	ROW_SUM(Y0)
	PAIR_FOLD(Y6)
	ROW_FMA64(12)
	ROW_SUM(Y4)
	ROW_FMA64(28)
	ROW_SUM(Y0)
	PAIR_FOLD(Y7)
	JMP  group_test

group_w32:
	ROW_FMA32(0, 7)
	ROW_SUM(Y4)
	ROW_FMA32(16, 7)
	ROW_SUM(Y0)
	PAIR_FOLD(Y5)
	ROW_FMA32(4, 7)
	ROW_SUM(Y4)
	ROW_FMA32(20, 7)
	ROW_SUM(Y0)
	PAIR_FOLD(Y6)
	VHADDPS Y6, Y5, Y5
	ROW_FMA32(8, 7)
	ROW_SUM(Y4)
	ROW_FMA32(24, 7)
	ROW_SUM(Y0)
	PAIR_FOLD(Y6)
	ROW_FMA32(12, 7)
	ROW_SUM(Y4)
	ROW_FMA32(28, 7)
	ROW_SUM(Y0)
	PAIR_FOLD(Y7)

group_test:
	VHADDPS Y7, Y6, Y6
	VHADDPS Y6, Y5, Y5     // lane i = Dot(q, row ids[i])
	VADDPS Y5, Y5, Y5      // c = 2·dot
	MOVQ norms_base+72(FP), DX
	LOAD8(DX, X1, X2, Y1)
	VBROADCASTSS qNorm+120(FP), Y2
	VADDPS Y2, Y1, Y1      // norms[id] + qNorm
	VSUBPS Y5, Y1, Y1      // − c
	VBROADCASTSS bound+124(FP), Y2
	MOVQ fac_base+96(FP), DX
	TESTQ DX, DX
	JZ   group_nofac
	LOAD8(DX, X3, X4, Y3)
	VMULPS Y3, Y2, Y2      // bound·fac[id]

group_nofac:
	VSUBPS Y2, Y1, Y1      // − bound·fac[id], or − bound
	VBROADCASTSS tau+128(FP), Y2
	VCMPPS $0x1a, Y2, Y1, Y1 // NGT_UQ: all ones unless > tau
	VMOVMSKPS Y1, CX
	MOVQ CX, DX
	SHLQ $5, DX
	VMOVDQU (SI)(DX*1), Y2 // pruneCompact[mask]
	VPERMD (R8), Y2, Y3
	VPERMPS Y5, Y2, Y4
	VMOVDQU Y3, (R10)(BX*4)
	VMOVUPS Y4, (R13)(BX*4)
	TESTL CX, CX
	JZ   group_done

group_prefetch:
	BSFL CX, DX
	MOVL (R8)(DX*4), AX
	IMULQ stride+160(FP), AX
	LEAQ (R14)(AX*4), AX   // row id of next
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	INCQ BX
	LEAL -1(CX), DX
	ANDL DX, CX
	JNZ  group_prefetch

group_done:
	ADDQ $32, R8
	SUBQ $8, R9
	JNZ  group_next
	VZEROUPPER
	MOVQ BX, ret+216(FP)
	RET
