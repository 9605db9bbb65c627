#include "textflag.h"

// math.Exp's FMA path (math/exp_amd64.s) on four lanes, two groups of four
// at a time. Every lane runs the scalar code's operations in its order:
// k = round(x·log2e), the two-part reduction x − k·ln2 fused as there, the
// scaling by 1/16, the fused Horner polynomial, four squarings (r·(r+2),
// the last fused with +1) and the ldexp.
//
// The scalar ldexp multiplies r by 2^k, or, for k ≤ −1023, by 2^(k+1022)
// and then by 2^−1022; it returns +0 for k < −1075. Here its branches are
// masks on the float k, and no multiply returns a subnormal: on x86 such a
// multiply takes a microcode assist of ~100 cycles, and with four lanes in
// a group most groups near the underflow would pay one. For k ≤ −1022,
// R = r·2^(k+1022) is exact and normal. While R < 1 − 2^−53 the result,
// R·2^−1022 rounded to the subnormal grid (R rounded to a multiple of
// 2^−52, ties to even, which R + 1 < 2 does exactly), is the low 52 bits
// of R + 1 read as a float64. For k = −1022 that covers every r < 1, where the
// scalar product r·2^−1022 is subnormal; a larger R multiplies by 2^−1022
// into a normal result (R = 1 − 2^−53 would not, but no argument reaches
// it). Every other lane multiplies by 2^k. Lanes with k < −1075 get +0
// from a mask, their k clamped to −1076 so that what they compute stays
// normal too.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12
#define Overflow 7.09782712893384e+02

// Each constant fills four lanes: 32 bytes at offset 32·i.
#define BCAST(i, val) \
	DATA expc<>+(32*i)(SB)/8, val; \
	DATA expc<>+(32*i+8)(SB)/8, val; \
	DATA expc<>+(32*i+16)(SB)/8, val; \
	DATA expc<>+(32*i+24)(SB)/8, val

BCAST(0, $LOG2E)
BCAST(1, $Overflow)
BCAST(2, $1023.0)
BCAST(3, $LN2U)
BCAST(4, $LN2L)
BCAST(5, $0.0625)
BCAST(6, $2.4801587301587301587e-5)
BCAST(7, $1.9841269841269841270e-4)
BCAST(8, $1.3888888888888888889e-3)
BCAST(9, $8.3333333333333333333e-3)
BCAST(10, $4.1666666666666666667e-2)
BCAST(11, $1.6666666666666666667e-1)
BCAST(12, $0.5)
BCAST(13, $1.0)
BCAST(14, $2.0)
BCAST(15, $-1075.0)
BCAST(16, $-1076.0)
BCAST(17, $-1022.0)
BCAST(18, $1022.0)
BCAST(19, $0x0010000000000000) // 2^−1022
BCAST(20, $0x3FEFFFFFFFFFFFFF) // 1 − 2^−53
BCAST(21, $0x000FFFFFFFFFFFFF) // the 52 mantissa bits
GLOBL expc<>(SB), RODATA|NOPTR, $704

#define C(i) expc<>+(32*i)(SB)

// VCMPPD predicates, all false and quiet on NaN.
#define LT_OQ 17
#define LE_OQ 18
#define GE_OQ 29

// LOADK loads four arguments at (SI)(AX*8)+off into X, k = round(x·log2e)
// into K and into M the lanes the kernel may take: x ≤ Overflow (false for
// NaN and +Inf) and k ≤ 1023 (past it the scalar ldexp overflows to +Inf).
// VROUNDPD gives the scalar CVTSD2SL's k wherever the result is not +0,
// and a k below −1075 wherever it is.
#define LOADK(off, X, K, M, U) \
	VMOVUPD  off(SI)(AX*8), X; \
	VMULPD   C(0), X, K; \
	VROUNDPD $0, K, K; \
	VCMPPD   $LE_OQ, C(1), X, M; \
	VCMPPD   $LE_OQ, C(2), K, U; \
	VANDPD   U, M, M

// POLY reduces X by k and evaluates the polynomial and the squarings into
// X, with P as scratch.
#define POLY(X, K, P) \
	VFNMADD231PD C(3), K, X; \
	VFNMADD231PD C(4), K, X; \
	VMULPD       C(5), X, X; \
	VMOVUPD      C(6), P; \
	VFMADD213PD  C(7), X, P; \
	VFMADD213PD  C(8), X, P; \
	VFMADD213PD  C(9), X, P; \
	VFMADD213PD  C(10), X, P; \
	VFMADD213PD  C(11), X, P; \
	VFMADD213PD  C(12), X, P; \
	VFMADD213PD  C(13), X, P; \
	VMULPD       P, X, X; \
	VADDPD       C(14), X, P; \
	VMULPD       P, X, X; \
	VADDPD       C(14), X, P; \
	VMULPD       P, X, X; \
	VADDPD       C(14), X, P; \
	VMULPD       P, X, X; \
	VADDPD       C(14), X, P; \
	VFMADD213PD  C(13), P, X

// SCALE turns k (in K) into M, the nonzero results (k ≥ −1075); K, the
// lanes scaled for a subnormal result (k ≤ −1022 after clamping to
// −1076); and S, 2^k there times 2^1022, elsewhere 2^k, built from the
// biased exponent in the two 128-bit halves AVX has integer shifts for.
#define SCALE(K, S, XS, M, U, XU, XW) \
	VCMPPD      $GE_OQ, C(15), K, M; \
	VMAXPD      C(16), K, S; \
	VCMPPD      $LE_OQ, C(17), S, K; \
	VADDPD      C(2), S, S; \
	VANDPD      C(18), K, U; \
	VADDPD      U, S, S; \
	VCVTPD2DQY  S, XS; \
	VPXOR       XW, XW, XW; \
	VPUNPCKHDQ  XW, XS, XU; \
	VPUNPCKLDQ  XW, XS, XS; \
	VPSLLQ      $52, XS, XS; \
	VPSLLQ      $52, XU, XU; \
	VINSERTF128 $1, XU, S, S

// FINISH applies the ldexp to X and stores it: R = X·S; in the lanes of K
// where R < 1 − 2^−53, the low 52 bits of R + 1; in K's other lanes
// R·2^−1022, elsewhere R; then M's mask.
#define FINISH(off, X, K, S, M, U, W) \
	VMULPD    S, X, X; \
	VCMPPD    $LT_OQ, C(20), X, U; \
	VANDPD    K, U, U; \
	VANDNPD   K, U, W; \
	VMOVUPD   C(13), S; \
	VBLENDVPD W, C(19), S, S; \
	VMULPD    S, X, S; \
	VADDPD    C(13), X, X; \
	VANDPD    C(21), X, X; \
	VBLENDVPD U, X, S, X; \
	VANDPD    M, X, X; \
	VMOVUPD   X, off(SI)(AX*8)

// func expQuads(v []float64) int
//
// Eight lanes per step while eight remain and all are the kernel's, else
// four.
TEXT ·expQuads(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	XORQ AX, AX

pairs:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  quad
	LOADK(0, Y0, Y1, Y3, Y14)
	LOADK(32, Y8, Y9, Y11, Y14)
	VANDPD    Y3, Y11, Y14
	VMOVMSKPD Y14, DX
	CMPQ      DX, $15
	JNE       quad
	POLY(Y0, Y1, Y2)
	POLY(Y8, Y9, Y10)
	SCALE(Y1, Y2, X2, Y3, Y14, X14, X15)
	SCALE(Y9, Y10, X10, Y11, Y14, X14, X15)
	FINISH(0, Y0, Y1, Y2, Y3, Y14, Y15)
	FINISH(32, Y8, Y9, Y10, Y11, Y14, Y15)
	ADDQ $8, AX
	JMP  pairs

quad:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done
	LOADK(0, Y0, Y1, Y3, Y14)
	VMOVMSKPD Y3, DX
	CMPQ      DX, $15
	JNE       done
	POLY(Y0, Y1, Y2)
	SCALE(Y1, Y2, X2, Y3, Y14, X14, X15)
	FINISH(0, Y0, Y1, Y2, Y3, Y14, Y15)
	ADDQ $4, AX
	JMP  pairs

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
