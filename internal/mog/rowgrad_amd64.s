#include "textflag.h"
#include "go_asm.h"

// Byte offsets of the galaxy table entries (rowgrad.go): each entry is one
// 16-byte pair, so the table operands of the packed instructions below are
// aligned memory operands.
#define MUX const_gtMuX*16
#define Q11 const_gtQ11*16
#define Q12 const_gtQ12*16
#define G10 const_gtG10*16
#define G20 const_gtG20*16
#define G11 const_gtG11*16
#define G21 const_gtG21*16
#define KV const_gtKV*16
#define HALFKV const_gtHalfKV*16
#define HALF const_gtHalf*16
#define TKG const_gtKG*16
#define TSA const_gtSA*16
#define TSB const_gtSB*16
#define D2 const_gtD2*16
#define Q12D2 const_gtQ12D2*16
#define Q22D2 const_gtQ22D2*16
#define TSC const_gtSC*16

// SHAPE adds shape lane k (k = 0..3 for coordinates 2..5) at pixels BX:
// lane += ev*(K.G - halfkv*((sa*s11 + sb*s12) + sc)), masked.
#define SHAPE(k, LANE, LD, ST) \
	MOVAPD TSA+16*k(DX), X10; \
	MULPD  X3, X10; \
	MOVAPD TSB+16*k(DX), X11; \
	MULPD  X4, X11; \
	ADDPD  X11, X10; \
	ADDPD  TSC+16*k(DX), X10; \
	MULPD  HALFKV(DX), X10; \
	MOVAPD TKG+16*k(DX), X11; \
	SUBPD  X10, X11; \
	MULPD  X1, X11; \
	ANDPD  X2, X11; \
	LD     (LANE)(BX*8), X12; \
	ADDPD  X11, X12; \
	ST     X12, (LANE)(BX*8)

// LANES runs the lane pass at pixels BX (and BX+1 when LD and ST move
// pairs): X0 d1, X1 ev, X2 the mask ev != 0 (true for NaN, as the scalar
// test is), X3 s11, X4 s12, X5/X6 tq1/tq2 then qg1, X7 qg0, X9 ke then ke/2.
#define LANES(LD, ST) \
	LD     (SI)(BX*8), X0; \
	SUBPD  MUX(DX), X0; \
	LD     (DI)(BX*8), X1; \
	XORPD  X2, X2; \
	CMPPD  X1, X2, $4; \
	MOVAPD X0, X3; \
	MULPD  X0, X3; \
	MOVAPD X0, X4; \
	MULPD  D2(DX), X4; \
	MOVAPD Q11(DX), X5; \
	MULPD  X0, X5; \
	ADDPD  Q12D2(DX), X5; \
	ADDPD  X5, X5; \
	MOVAPD Q12(DX), X6; \
	MULPD  X0, X6; \
	ADDPD  Q22D2(DX), X6; \
	ADDPD  X6, X6; \
	MOVAPD X5, X7; \
	MULPD  G10(DX), X7; \
	MOVAPD X6, X10; \
	MULPD  G20(DX), X10; \
	ADDPD  X10, X7; \
	MULPD  G11(DX), X5; \
	MULPD  G21(DX), X6; \
	ADDPD  X6, X5; \
	MOVAPD KV(DX), X9; \
	MULPD  X1, X9; \
	MOVAPD X9, X10; \
	ANDPD  X2, X10; \
	LD     (R8)(BX*8), X11; \
	ADDPD  X10, X11; \
	ST     X11, (R8)(BX*8); \
	MULPD  HALF(DX), X9; \
	MULPD  X9, X7; \
	ANDPD  X2, X7; \
	LD     (R9)(BX*8), X11; \
	SUBPD  X7, X11; \
	ST     X11, (R9)(BX*8); \
	MULPD  X9, X5; \
	ANDPD  X2, X5; \
	LD     (R10)(BX*8), X11; \
	SUBPD  X5, X11; \
	ST     X11, (R10)(BX*8); \
	SHAPE(0, R11, LD, ST); \
	SHAPE(1, R12, LD, ST); \
	SHAPE(2, R13, LD, ST); \
	SHAPE(3, AX, LD, ST)

// func galLanesSSE2(t, dxs, erow, gv, gG *float64, n, w int)
//
// DX holds the table, SI dxs, DI erow, R8 gv, R9 R10 R11 R12 R13 AX the six
// gradient lanes (w*8 bytes apart) and BX the pixel index. Each pixel gets
// the Go loop's operations (rowgrad_generic.go) in the same order.
TEXT ·galLanesSSE2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), DX
	MOVQ dxs+8(FP), SI
	MOVQ erow+16(FP), DI
	MOVQ gv+24(FP), R8
	MOVQ gG+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ w+48(FP), AX
	SHLQ $3, AX
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), AX
	XORQ BX, BX

pairs:
	LEAQ 2(BX), R14
	CMPQ R14, CX
	JGT  tail
	LANES(MOVUPD, MOVUPD)
	MOVQ R14, BX
	JMP  pairs

tail:
	CMPQ BX, CX
	JGE  done
	LANES(MOVSD, MOVSD)

done:
	RET
