//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA float kernels. Each float64 kernel is bitwise identical to its Go
// reference (dotGo, dotBlockGo, SqDist, AddInto); doc.go and DESIGN.md give
// the argument; the float32 screen kernels at the end are not, and need not
// be. In
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

// func addRows4AVX2(acc *float64, rows *float32, d, groups int)
//
// Adds groups*4 packed rows of d floats into acc, the rows in order: four
// coordinates a YMM register at a time, each lane one coordinate's chain as
// AddInto row by row forms it, so acc is loaded and stored once per four rows.
// The tail coordinates take the same four adds one at a time.
TEXT ·addRows4AVX2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ d+16(FP), CX
	MOVQ groups+24(FP), R11
	MOVQ CX, DX
	ANDQ $-4, DX

add_group:
	TESTQ R11, R11
	JZ    add_ret
	LEAQ  (SI)(CX*4), R8  // the group's second row
	LEAQ  (R8)(CX*4), R9
	LEAQ  (R9)(CX*4), R10
	XORQ  AX, AX
	TESTQ DX, DX
	JZ    add_tail

add_loop:
	VMOVUPD   (DI)(AX*8), Y0
	VCVTPS2PD (SI)(AX*4), Y1
	VADDPD    Y1, Y0, Y0
	VCVTPS2PD (R8)(AX*4), Y2
	VADDPD    Y2, Y0, Y0
	VCVTPS2PD (R9)(AX*4), Y3
	VADDPD    Y3, Y0, Y0
	VCVTPS2PD (R10)(AX*4), Y1
	VADDPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, DX
	JLT       add_loop

add_tail:
	CMPQ      AX, CX
	JGE       add_next
	VMOVSD    (DI)(AX*8), X0
	VCVTSS2SD (SI)(AX*4), X1, X1
	VADDSD    X1, X0, X0
	VCVTSS2SD (R8)(AX*4), X1, X1
	VADDSD    X1, X0, X0
	VCVTSS2SD (R9)(AX*4), X1, X1
	VADDSD    X1, X0, X0
	VCVTSS2SD (R10)(AX*4), X1, X1
	VADDSD    X1, X0, X0
	VMOVSD    X0, (DI)(AX*8)
	INCQ      AX
	JMP       add_tail

add_next:
	LEAQ (R10)(CX*4), SI
	DECQ R11
	JMP  add_group

add_ret:
	VZEROUPPER
	RET

// The float32 screen kernels (screen.go). They sum in float32, eight lanes
// a register, with fused multiply-adds, and reproduce no reference bit for
// bit: the screen's bounds hold for any order and any fusion. The last d%8
// elements of a row are one masked step (VMASKMOVPS reads nothing past the
// mask and fills the rest with zeros, which add nothing), and the
// accumulators of four rows reduce together into one register of four sums.

// tailmask<>+32-4t is the mask of a masked step over the last t elements:
// t all-ones lanes, then zeros.
DATA tailmask<>+0(SB)/4, $0xffffffff
DATA tailmask<>+4(SB)/4, $0xffffffff
DATA tailmask<>+8(SB)/4, $0xffffffff
DATA tailmask<>+12(SB)/4, $0xffffffff
DATA tailmask<>+16(SB)/4, $0xffffffff
DATA tailmask<>+20(SB)/4, $0xffffffff
DATA tailmask<>+24(SB)/4, $0xffffffff
DATA tailmask<>+28(SB)/4, $0xffffffff
DATA tailmask<>+32(SB)/4, $0
DATA tailmask<>+36(SB)/4, $0
DATA tailmask<>+40(SB)/4, $0
DATA tailmask<>+44(SB)/4, $0
DATA tailmask<>+48(SB)/4, $0
DATA tailmask<>+52(SB)/4, $0
DATA tailmask<>+56(SB)/4, $0
DATA tailmask<>+60(SB)/4, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads the mask for the last d%8 elements into Y15, d being in CX.
// Clobbers tmp and idx.
#define TAILMASK(tmp, idx) \
	MOVQ    CX, idx; \
	ANDQ    $7, idx; \
	NEGQ    idx; \
	LEAQ    tailmask<>+32(SB), tmp; \
	VMOVUPS (tmp)(idx*4), Y15

// HSUM4 reduces the four accumulators a, b, c, e to one register whose low
// half, ax, holds their four sums in that order. Clobbers b, c and X14.
#define HSUM4(a, b, c, e, ax) \
	VHADDPS      b, a, a; \
	VHADDPS      e, c, c; \
	VHADDPS      c, a, a; \
	VEXTRACTF128 $1, a, X14; \
	VADDPS       X14, ax, ax

// SQ32 adds the squared differences of eight elements of the row at off(base)
// from q's, which are in Y0, into acc.
#define SQ32(off, base, tmp, acc) \
	VSUBPS      off(base)(AX*4), Y0, tmp; \
	VFMADD231PS tmp, tmp, acc

// SQ32MASK is SQ32 for the masked last step.
#define SQ32MASK(base, tmp, acc) \
	VMASKMOVPS  (base)(AX*4), Y15, tmp; \
	VSUBPS      tmp, Y0, tmp; \
	VFMADD231PS tmp, tmp, acc

// func sqDist4F32AVX2(q, rows *float32, d int, out *float32)
//
// Squared distances from q to four packed rows of d floats, two accumulators
// a row over sixteen elements at a time.
TEXT ·sqDist4F32AVX2(SB), NOSPLIT, $0-32
	MOVQ   q+0(FP), SI
	MOVQ   rows+8(FP), R8
	MOVQ   d+16(FP), CX
	MOVQ   out+24(FP), DI
	TAILMASK(R9, R10)
	LEAQ   (R8)(CX*4), R9
	LEAQ   (R9)(CX*4), R10
	LEAQ   (R10)(CX*4), R11
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ   AX, AX
	MOVQ   CX, DX
	SUBQ   $16, DX

sq32_loop16:
	CMPQ    AX, DX
	JGT     sq32_step8
	VMOVUPS (SI)(AX*4), Y0
	SQ32(0, R8, Y1, Y4)
	SQ32(0, R9, Y2, Y5)
	SQ32(0, R10, Y3, Y6)
	SQ32(0, R11, Y1, Y7)
	VMOVUPS 32(SI)(AX*4), Y0
	SQ32(32, R8, Y2, Y8)
	SQ32(32, R9, Y3, Y9)
	SQ32(32, R10, Y1, Y10)
	SQ32(32, R11, Y2, Y11)
	ADDQ    $16, AX
	JMP     sq32_loop16

sq32_step8:
	ADDQ    $8, DX
	CMPQ    AX, DX
	JGT     sq32_mask
	VMOVUPS (SI)(AX*4), Y0
	SQ32(0, R8, Y1, Y4)
	SQ32(0, R9, Y2, Y5)
	SQ32(0, R10, Y3, Y6)
	SQ32(0, R11, Y1, Y7)
	ADDQ    $8, AX

sq32_mask:
	CMPQ       AX, CX
	JGE        sq32_done
	VMASKMOVPS (SI)(AX*4), Y15, Y0
	SQ32MASK(R8, Y1, Y4)
	SQ32MASK(R9, Y2, Y5)
	SQ32MASK(R10, Y3, Y6)
	SQ32MASK(R11, Y1, Y7)

sq32_done:
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y10, Y6, Y6
	VADDPS  Y11, Y7, Y7
	HSUM4(Y4, Y5, Y6, Y7, X4)
	VMOVUPS X4, (DI)
	VZEROUPPER
	RET

// IP32 adds the products of eight elements of the row at base with q's,
// which are in Y0, into acc and their squares into sq.
#define IP32(base, tmp, acc, sq) \
	VMOVUPS     (base)(AX*4), tmp; \
	VFMADD231PS Y0, tmp, acc; \
	VFMADD231PS tmp, tmp, sq

// IP32MASK is IP32 for the masked last step.
#define IP32MASK(base, tmp, acc, sq) \
	VMASKMOVPS  (base)(AX*4), Y15, tmp; \
	VFMADD231PS Y0, tmp, acc; \
	VFMADD231PS tmp, tmp, sq

// func dot4F32AVX2(q, rows *float32, d int, ip, sqn *float32)
//
// Inner products of q with four packed rows of d floats, and the rows'
// squared norms: eight accumulators, one FMA each per eight elements.
TEXT ·dot4F32AVX2(SB), NOSPLIT, $0-40
	MOVQ   q+0(FP), SI
	MOVQ   rows+8(FP), R8
	MOVQ   d+16(FP), CX
	MOVQ   ip+24(FP), DI
	MOVQ   sqn+32(FP), BX
	TAILMASK(R9, R10)
	LEAQ   (R8)(CX*4), R9
	LEAQ   (R9)(CX*4), R10
	LEAQ   (R10)(CX*4), R11
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ   CX, DX
	ANDQ   $-8, DX
	XORQ   AX, AX

ip32_loop:
	CMPQ    AX, DX
	JGE     ip32_mask
	VMOVUPS (SI)(AX*4), Y0
	IP32(R8, Y1, Y4, Y8)
	IP32(R9, Y2, Y5, Y9)
	IP32(R10, Y1, Y6, Y10)
	IP32(R11, Y2, Y7, Y11)
	ADDQ    $8, AX
	JMP     ip32_loop

ip32_mask:
	CMPQ       AX, CX
	JGE        ip32_done
	VMASKMOVPS (SI)(AX*4), Y15, Y0
	IP32MASK(R8, Y1, Y4, Y8)
	IP32MASK(R9, Y2, Y5, Y9)
	IP32MASK(R10, Y1, Y6, Y10)
	IP32MASK(R11, Y2, Y7, Y11)

ip32_done:
	HSUM4(Y4, Y5, Y6, Y7, X4)
	VMOVUPS X4, (DI)
	HSUM4(Y8, Y9, Y10, Y11, X8)
	VMOVUPS X8, (BX)
	VZEROUPPER
	RET

// TILE32Q adds one query's eight elements, in q, into its two
// accumulators, the rows' elements being in Y10 and Y11.
#define TILE32Q(q, a0, a1) \
	VFMADD231PS q, Y10, a0; \
	VFMADD231PS q, Y11, a1

// func dotTile2x4F32AVX2(rows *float32, pairs, d int, q0, q1, q2, q3 *float32, ip, sqn *float32)
//
// The float32 tile: pairs*2 packed rows of d floats against four queries, two
// rows by four queries in flight, plus each row's squared norm. ip[r*4 + k]
// receives <row r, q_k> and sqn[r] ||row r||^2. Every register is in use in
// the loop (ten accumulators, two rows, four queries), so the masked step
// takes its mask from the frame.
TEXT ·dotTile2x4F32AVX2(SB), NOSPLIT, $8-72
	MOVQ rows+0(FP), SI
	MOVQ pairs+8(FP), R13
	MOVQ d+16(FP), CX
	MOVQ q0+24(FP), R9
	MOVQ q1+32(FP), R10
	MOVQ q2+40(FP), R11
	MOVQ q3+48(FP), R12
	MOVQ ip+56(FP), DI
	MOVQ sqn+64(FP), BX
	MOVQ CX, R8
	ANDQ $7, R8
	NEGQ R8
	LEAQ tailmask<>+32(SB), AX
	LEAQ (AX)(R8*4), AX
	MOVQ AX, mask-8(SP) // the masked step's mask

tile32_pair:
	TESTQ  R13, R13
	JZ     tile32_ret
	MOVQ   CX, DX
	ANDQ   $-8, DX
	LEAQ   (SI)(CX*4), R8 // second row of the pair
	VXORPS Y0, Y0, Y0     // row 0 x q0..q3
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4     // row 1 x q0..q3
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8     // the two rows' squared norms
	VXORPS Y9, Y9, Y9
	XORQ   AX, AX

tile32_loop:
	CMPQ        AX, DX
	JGE         tile32_mask
	VMOVUPS     (SI)(AX*4), Y10
	VMOVUPS     (R8)(AX*4), Y11
	VMOVUPS     (R9)(AX*4), Y12
	VMOVUPS     (R10)(AX*4), Y13
	VMOVUPS     (R11)(AX*4), Y14
	VMOVUPS     (R12)(AX*4), Y15
	TILE32Q(Y12, Y0, Y4)
	TILE32Q(Y13, Y1, Y5)
	TILE32Q(Y14, Y2, Y6)
	TILE32Q(Y15, Y3, Y7)
	VFMADD231PS Y10, Y10, Y8
	VFMADD231PS Y11, Y11, Y9
	ADDQ        $8, AX
	JMP         tile32_loop

tile32_mask:
	CMPQ        AX, CX
	JGE         tile32_store
	MOVQ        mask-8(SP), DX
	VMOVUPS     (DX), Y15
	VMASKMOVPS  (SI)(AX*4), Y15, Y10
	VMASKMOVPS  (R8)(AX*4), Y15, Y11
	VMASKMOVPS  (R9)(AX*4), Y15, Y12
	VMASKMOVPS  (R10)(AX*4), Y15, Y13
	VMASKMOVPS  (R11)(AX*4), Y15, Y14
	VMASKMOVPS  (R12)(AX*4), Y15, Y15
	TILE32Q(Y12, Y0, Y4)
	TILE32Q(Y13, Y1, Y5)
	TILE32Q(Y14, Y2, Y6)
	TILE32Q(Y15, Y3, Y7)
	VFMADD231PS Y10, Y10, Y8
	VFMADD231PS Y11, Y11, Y9

tile32_store:
	HSUM4(Y0, Y1, Y2, Y3, X0)
	VMOVUPS      X0, (DI)
	HSUM4(Y4, Y5, Y6, Y7, X4)
	VMOVUPS      X4, 16(DI)
	VHADDPS      Y9, Y8, Y8
	VHADDPS      Y8, Y8, Y8
	VEXTRACTF128 $1, Y8, X14
	VADDPS       X14, X8, X8
	VMOVSD       X8, (BX)
	LEAQ         (R8)(CX*4), SI
	ADDQ         $32, DI
	ADDQ         $8, BX
	DECQ         R13
	JMP          tile32_pair

tile32_ret:
	VZEROUPPER
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
