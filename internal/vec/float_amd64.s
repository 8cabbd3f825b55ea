//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA float kernels. Each is bitwise identical to its Go reference
// (dotGo, dotBlockGo, SqDist); doc.go and DESIGN.md give the argument. In
// short: a float32 x float32 product is exact in float64, so a fused
// multiply-add rounds exactly as the reference's multiply-then-add; lane k
// of a YMM accumulator is the reference's chain s_k; tail elements fold into
// lane 0; and the final sum is ((s0+s1)+s2)+s3. The squared-distance kernel
// squares a rounded difference, which is not exact, so it stays unfused.
// No kernel reads past the n-th (d-th) float of any operand.

// REDUCE4 stores ((s0+s1)+s2)+s3 at off(DI), with lo = [s0, s1] and
// hi = [s2, s3]. Clobbers lo, hi and X15.
#define REDUCE4(lo, hi, off) \
	VPERMILPD $1, lo, X15; \
	VADDSD    X15, lo, lo; \
	VADDSD    hi, lo, lo; \
	VPERMILPD $1, hi, hi; \
	VADDSD    hi, lo, lo; \
	VMOVSD    lo, off(DI)

// func dotAVX2(a, b *float32, n int) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), R8
	MOVQ   n+16(FP), CX
	LEAQ   ret+24(FP), DI
	VXORPD Y4, Y4, Y4 // lanes = chains s0..s3
	MOVQ   CX, DX
	ANDQ   $-4, DX    // elements covered by whole groups of four
	XORQ   AX, AX

	TESTQ  DX, DX
	JZ     dot_tail

dot_loop:
	VCVTPS2PD   (SI)(AX*4), Y0
	VCVTPS2PD   (R8)(AX*4), Y1
	VFMADD231PD Y0, Y1, Y4
	ADDQ        $4, AX
	CMPQ        AX, DX
	JLT         dot_loop

dot_tail:
	// A VEX scalar op zeroes bits 128 and up of its destination, so s2 and
	// s3 move out before the tail accumulates into lane 0.
	VEXTRACTF128 $1, Y4, X8

dot_tail_loop:
	CMPQ        AX, CX
	JGE         dot_done
	VCVTSS2SD   (SI)(AX*4), X0, X0
	VCVTSS2SD   (R8)(AX*4), X1, X1
	VFMADD231SD X0, X1, X4
	INCQ        AX
	JMP         dot_tail_loop

dot_done:
	REDUCE4(X4, X8, 0)
	VZEROUPPER
	RET

// func dotBlock4AVX2(q, rows *float32, d int, out *float64)
//
// Four packed rows of d floats against one query: each converted group of
// four query elements feeds four independent accumulators.
TEXT ·dotBlock4AVX2(SB), NOSPLIT, $0-32
	MOVQ   q+0(FP), SI
	MOVQ   rows+8(FP), R8
	MOVQ   d+16(FP), CX
	MOVQ   out+24(FP), DI
	LEAQ   (R8)(CX*4), R9
	LEAQ   (R9)(CX*4), R10
	LEAQ   (R10)(CX*4), R11
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   CX, DX
	ANDQ   $-4, DX
	XORQ   AX, AX

	TESTQ  DX, DX
	JZ     block_tail

block_loop:
	VCVTPS2PD   (SI)(AX*4), Y0
	VCVTPS2PD   (R8)(AX*4), Y1
	VCVTPS2PD   (R9)(AX*4), Y2
	VFMADD231PD Y0, Y1, Y4
	VCVTPS2PD   (R10)(AX*4), Y3
	VFMADD231PD Y0, Y2, Y5
	VCVTPS2PD   (R11)(AX*4), Y1
	VFMADD231PD Y0, Y3, Y6
	VFMADD231PD Y0, Y1, Y7
	ADDQ        $4, AX
	CMPQ        AX, DX
	JLT         block_loop

block_tail:
	VEXTRACTF128 $1, Y4, X8
	VEXTRACTF128 $1, Y5, X9
	VEXTRACTF128 $1, Y6, X10
	VEXTRACTF128 $1, Y7, X11

block_tail_loop:
	CMPQ        AX, CX
	JGE         block_done
	VCVTSS2SD   (SI)(AX*4), X0, X0
	VCVTSS2SD   (R8)(AX*4), X1, X1
	VFMADD231SD X0, X1, X4
	VCVTSS2SD   (R9)(AX*4), X2, X2
	VFMADD231SD X0, X2, X5
	VCVTSS2SD   (R10)(AX*4), X3, X3
	VFMADD231SD X0, X3, X6
	VCVTSS2SD   (R11)(AX*4), X1, X1
	VFMADD231SD X0, X1, X7
	INCQ        AX
	JMP         block_tail_loop

block_done:
	REDUCE4(X4, X8, 0)
	REDUCE4(X5, X9, 8)
	REDUCE4(X6, X10, 16)
	REDUCE4(X7, X11, 24)
	VZEROUPPER
	RET

// SQSTEP accumulates two elements of the row at base into acc: lane 0 is
// SqDist's chain s0 (even elements), lane 1 its chain s1 (odd elements).
#define SQSTEP(base, tmp, acc) \
	VCVTPS2PD (base)(AX*4), tmp; \
	VSUBPD    X0, tmp, tmp; \
	VMULPD    tmp, tmp, tmp; \
	VADDPD    tmp, acc, acc

// SQTAIL accumulates the last element of an odd-length row into chain s0.
#define SQTAIL(base, tmp, acc) \
	VCVTSS2SD (base)(AX*4), tmp, tmp; \
	VSUBSD    X0, tmp, tmp; \
	VMULSD    tmp, tmp, tmp; \
	VADDSD    tmp, acc, acc

// SQSUM stores s0+s1 at off(DI).
#define SQSUM(acc, off) \
	VPERMILPD $1, acc, X15; \
	VADDSD    X15, acc, acc; \
	VMOVSD    acc, off(DI)

// func sqDist4AVX2(q, r0, r1, r2, r3 *float32, d int, out *float64)
//
// Squared distances from q to four rows given by pointer. Two chains per
// row as in SqDist, so each row owns one XMM accumulator and the speed comes
// from four rows in flight behind one converted pair of query elements.
TEXT ·sqDist4AVX2(SB), NOSPLIT, $0-56
	MOVQ   q+0(FP), SI
	MOVQ   r0+8(FP), R8
	MOVQ   r1+16(FP), R9
	MOVQ   r2+24(FP), R10
	MOVQ   r3+32(FP), R11
	MOVQ   d+40(FP), CX
	MOVQ   out+48(FP), DI
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	MOVQ   CX, DX
	ANDQ   $-2, DX
	XORQ   AX, AX

	TESTQ  DX, DX
	JZ     sq_tail

sq_loop:
	VCVTPS2PD (SI)(AX*4), X0
	SQSTEP(R8, X1, X4)
	SQSTEP(R9, X2, X5)
	SQSTEP(R10, X3, X6)
	SQSTEP(R11, X8, X7)
	ADDQ      $2, AX
	CMPQ      AX, DX
	JLT       sq_loop

sq_tail:
	CMPQ      AX, CX
	JGE       sq_done
	VCVTSS2SD (SI)(AX*4), X0, X0
	SQTAIL(R8, X1, X4)
	SQTAIL(R9, X2, X5)
	SQTAIL(R10, X3, X6)
	SQTAIL(R11, X8, X7)

sq_done:
	SQSUM(X4, 0)
	SQSUM(X5, 8)
	SQSUM(X6, 16)
	SQSUM(X7, 24)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
