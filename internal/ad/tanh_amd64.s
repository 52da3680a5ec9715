#include "textflag.h"

// Each constant is stored four times, so that one 32-byte memory operand
// supplies it to all four lanes.
#define VEC(off, v) DATA tanhdata<>+(off)(SB)/8, v; DATA tanhdata<>+(off+8)(SB)/8, v; DATA tanhdata<>+(off+16)(SB)/8, v; DATA tanhdata<>+(off+24)(SB)/8, v

VEC(0, $0x7fffffffffffffff)        // |x| mask
VEC(32, $0x8000000000000000)       // sign mask
VEC(64, $0.625)                    // tanh: exp-form threshold
VEC(96, $44.014845965556527147994) // tanh: 0.5*MAXLOG
VEC(128, $1.4426950408889634073599246810018920) // exp: LOG2E
VEC(160, $0.69314718055966295651160180568695068359375) // exp: LN2U
VEC(192, $0.28235290563031577122588448175013436025525412068e-12) // exp: LN2L
VEC(224, $0.0625)
VEC(256, $2.4801587301587301587e-5) // exp: Taylor coefficients
VEC(288, $1.9841269841269841270e-4)
VEC(320, $1.3888888888888888889e-3)
VEC(352, $8.3333333333333333333e-3)
VEC(384, $4.1666666666666666667e-2)
VEC(416, $1.6666666666666666667e-1)
VEC(448, $0.5)
VEC(480, $1.0)
VEC(512, $2.0)
VEC(544, $1023)                    // exp: exponent bias (int64)
VEC(576, $(-9.64399179425052238628e-1)) // tanh: P
VEC(608, $(-9.92877231001918586564e1))
VEC(640, $(-1.61468768441708447952e3))
VEC(672, $1.12811678491632931402e2) // tanh: Q
VEC(704, $2.23548839060100448583e3)
VEC(736, $4.84406305325125486048e3)
GLOBL tanhdata<>(SB), RODATA|NOPTR, $768

#define ABS tanhdata<>+0(SB)
#define SIGN tanhdata<>+32(SB)
#define THRESH tanhdata<>+64(SB)
#define HALFMAXLOG tanhdata<>+96(SB)
#define LOG2E tanhdata<>+128(SB)
#define LN2U tanhdata<>+160(SB)
#define LN2L tanhdata<>+192(SB)
#define SIXTEENTH tanhdata<>+224(SB)
#define E64 tanhdata<>+256(SB)
#define E56 tanhdata<>+288(SB)
#define E48 tanhdata<>+320(SB)
#define E40 tanhdata<>+352(SB)
#define E32 tanhdata<>+384(SB)
#define E24 tanhdata<>+416(SB)
#define HALF tanhdata<>+448(SB)
#define ONE tanhdata<>+480(SB)
#define TWO tanhdata<>+512(SB)
#define BIAS tanhdata<>+544(SB)
#define P0 tanhdata<>+576(SB)
#define P1 tanhdata<>+608(SB)
#define P2 tanhdata<>+640(SB)
#define Q0 tanhdata<>+672(SB)
#define Q1 tanhdata<>+704(SB)
#define Q2 tanhdata<>+736(SB)

// func tanh4(y, x []float64)
//
// Registers: SI x, DI y, CX groups of four left. Y0 x, Y1 |x|, Y15 x's sign
// bit; Y2 exp's reduced argument and then exp(2|x|), Y3 its k, X4/Y4 k as
// int32 and then 2^k, Y5 the Taylor sum; Y7 x², Y8 P(x²), Y9 Q(x²) and then
// the divisor, Y10 the dividend and then the result, Y11 a lane mask, Y12
// the exp form's result, Y13 1.0 and then ±1, Y14 zero.
TEXT ·tanh4(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	SHRQ $2, CX
	JZ   done
	VXORPD Y14, Y14, Y14

	PCALIGN $64

loop:
	VMOVUPD (SI), Y0
	VANDPD  ABS, Y0, Y1
	VANDPD  SIGN, Y0, Y15

	// exp(2|x|), as archExp's avxfma path computes it per lane: k =
	// round(LOG2E·a), r = (a − k·LN2U − k·LN2L)/16, a Taylor sum in r,
	// four doublings, and the product with 2^k. a lies in [1.25, 88.03]
	// on every lane whose result is kept, so archExp's overflow and
	// denormal branches never apply.
	VADDPD       Y1, Y1, Y2
	VMULPD       LOG2E, Y2, Y3
	VCVTPD2DQY   Y3, X4
	VCVTDQ2PD    X4, Y3
	VFNMADD231PD LN2U, Y3, Y2
	VFNMADD231PD LN2L, Y3, Y2
	VMULPD       SIXTEENTH, Y2, Y2
	VMOVUPD      E64, Y5
	VFMADD213PD  E56, Y2, Y5
	VFMADD213PD  E48, Y2, Y5
	VFMADD213PD  E40, Y2, Y5
	VFMADD213PD  E32, Y2, Y5
	VFMADD213PD  E24, Y2, Y5
	VFMADD213PD  HALF, Y2, Y5
	VFMADD213PD  ONE, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       TWO, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       TWO, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       TWO, Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       TWO, Y2, Y5
	VFMADD213PD  ONE, Y5, Y2
	VPMOVSXDQ    X4, Y4
	VPADDQ       BIAS, Y4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y2, Y2

	// The rational form's x·s·P(s) and Q(s), s = x², each operation
	// rounded separately as in tanh.go.
	VMULPD  Y0, Y0, Y7
	VMULPD  P0, Y7, Y8
	VADDPD  P1, Y8, Y8
	VMULPD  Y7, Y8, Y8
	VADDPD  P2, Y8, Y8
	VADDPD  Q0, Y7, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  Q1, Y9, Y9
	VMULPD  Y7, Y9, Y9
	VADDPD  Q2, Y9, Y9
	VMULPD  Y7, Y0, Y10
	VMULPD  Y8, Y10, Y10

	// One division: 2/(e+1) on lanes with |x| ≥ 0.625, x·s·P/Q elsewhere.
	VCMPPD    $0x1d, THRESH, Y1, Y11
	VADDPD    ONE, Y2, Y6
	VBLENDVPD Y11, TWO, Y10, Y10
	VBLENDVPD Y11, Y6, Y9, Y9
	VDIVPD    Y9, Y10, Y10

	// 1 − q with x's sign, or x + q.
	VMOVUPD   ONE, Y13
	VSUBPD    Y10, Y13, Y12
	VORPD     Y15, Y12, Y12
	VADDPD    Y10, Y0, Y10
	VBLENDVPD Y11, Y12, Y10, Y10

	// ±1 where |x| > MAXLOG/2, and x itself where x == 0.
	VCMPPD    $0x1e, HALFMAXLOG, Y1, Y11
	VORPD     Y15, Y13, Y13
	VBLENDVPD Y11, Y13, Y10, Y10
	VCMPPD    $0x00, Y14, Y0, Y11
	VBLENDVPD Y11, Y0, Y10, Y10

	VMOVUPD Y10, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

	VZEROUPPER

done:
	RET
