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

// REDUCE4TO stores ((s0+s1)+s2)+s3 at dst, with lo = [s0, s1] and
// hi = [s2, s3]. Clobbers lo, hi and X15.
#define REDUCE4TO(lo, hi, dst) \
	VPERMILPD $1, lo, X15; \
	VADDSD    X15, lo, lo; \
	VADDSD    hi, lo, lo; \
	VPERMILPD $1, hi, hi; \
	VADDSD    hi, lo, lo; \
	VMOVSD    lo, dst

#define REDUCE4(lo, hi, off) REDUCE4TO(lo, hi, off(DI))

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

// TILEQ accumulates one query's four widened elements at qbase into its two
// accumulators: a0 += row0 * q, a1 += row1 * q, the converted row groups
// being in Y8 and Y9.
#define TILEQ(qbase, tmp, a0, a1) \
	VMOVUPD     (qbase)(AX*8), tmp; \
	VFMADD231PD tmp, Y8, a0; \
	VFMADD231PD tmp, Y9, a1

// TILEQTAIL is TILEQ for one tail element: VMOVSD zeroes every lane of tmp
// above the first, and the row registers hold [x, 0, 0, 0].
#define TILEQTAIL(qbase, tmpx, tmp, a0, a1) \
	VMOVSD      (qbase)(AX*8), tmpx; \
	VFMADD231PD tmp, Y8, a0; \
	VFMADD231PD tmp, Y9, a1

// TILEOUT reduces one accumulator to dst. Clobbers acc, X8 and X15.
#define TILEOUT(acc, accx, dst) \
	VEXTRACTF128 $1, acc, X8; \
	REDUCE4TO(accx, X8, dst)

// func dotTile2x4AVX2(rows *float32, pairs, d int, q0, q1, q2, q3 *float64, out *float64, stride int)
//
// The multi-query tile: pairs*2 packed rows of d floats against four queries
// already widened to float64, two rows by four queries in flight, so one
// converted group of row elements feeds four products and one loaded group of
// query elements two. out[r*stride + k] receives <row r, q_k>.
//
// A tail element is accumulated with a full-width FMA whose lanes 1 to 3
// multiply zero by zero: adding that +0 leaves s1..s3 as they are, because a
// chain that starts at +0 never holds -0 (x + y is -0 only when both are).
TEXT ·dotTile2x4AVX2(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), SI
	MOVQ pairs+8(FP), R13
	MOVQ d+16(FP), CX
	MOVQ q0+24(FP), R9
	MOVQ q1+32(FP), R10
	MOVQ q2+40(FP), R11
	MOVQ q3+48(FP), R12
	MOVQ out+56(FP), DI
	MOVQ stride+64(FP), BX
	SHLQ $3, BX           // bytes between a row's outputs and the next row's
	MOVQ CX, DX
	ANDQ $-4, DX

tile_pair:
	TESTQ  R13, R13
	JZ     tile_ret
	LEAQ   (SI)(CX*4), R8 // second row of the pair
	VXORPD Y0, Y0, Y0     // row 0 x q0..q3
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4     // row 1 x q0..q3
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	TESTQ  DX, DX
	JZ     tile_tail

tile_loop:
	VCVTPS2PD (SI)(AX*4), Y8
	VCVTPS2PD (R8)(AX*4), Y9
	TILEQ(R9, Y10, Y0, Y4)
	TILEQ(R10, Y11, Y1, Y5)
	TILEQ(R11, Y12, Y2, Y6)
	TILEQ(R12, Y13, Y3, Y7)
	ADDQ      $4, AX
	CMPQ      AX, DX
	JLT       tile_loop

tile_tail:
	VXORPD X14, X14, X14

tile_tail_loop:
	CMPQ      AX, CX
	JGE       tile_store
	VCVTSS2SD (SI)(AX*4), X14, X8 // Y8 = [x, 0, 0, 0]: lane 1 from X14, the rest zeroed by VEX
	VCVTSS2SD (R8)(AX*4), X14, X9
	TILEQTAIL(R9, X10, Y10, Y0, Y4)
	TILEQTAIL(R10, X11, Y11, Y1, Y5)
	TILEQTAIL(R11, X12, Y12, Y2, Y6)
	TILEQTAIL(R12, X13, Y13, Y3, Y7)
	INCQ      AX
	JMP       tile_tail_loop

tile_store:
	TILEOUT(Y0, X0, 0(DI))
	TILEOUT(Y1, X1, 8(DI))
	TILEOUT(Y2, X2, 16(DI))
	TILEOUT(Y3, X3, 24(DI))
	TILEOUT(Y4, X4, 0(DI)(BX*1))
	TILEOUT(Y5, X5, 8(DI)(BX*1))
	TILEOUT(Y6, X6, 16(DI)(BX*1))
	TILEOUT(Y7, X7, 24(DI)(BX*1))
	LEAQ (R8)(CX*4), SI
	LEAQ (DI)(BX*2), DI
	DECQ R13
	JMP  tile_pair

tile_ret:
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
