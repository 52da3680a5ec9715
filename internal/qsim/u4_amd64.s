#include "textflag.h"

// Both kernels walk len(re)/4 groups. Group g's base index j is g with zero
// bits inserted at qa and qb, which for a mask m = s−1 below a power of two
// s is 2g − (g & m): first at qa, then at qb. Its four amplitudes sit at
// j, j+sa, j+sb and j+sa+sb. Every sum below runs in the scalar Go
// expression's order as separately rounded VMULPD and VADDPD/VSUBPD steps;
// there is no fused multiply-add anywhere in this file.

// func applyU4AVX2(re, im []float64, pk *[32]float64, sa, sb int)
//
// Registers: SI re, DI im, DX groups, CX g, R8/R9 the qa/qb masks, R10 j
// then re+j, BX im+j, R11/R12/R13 = sa/sb/sa+sb in bytes, AX scratch.
// Y8–Y15 hold pk: column c's re parts in Y(8+2c), im parts in Y(9+2c), the
// lanes across U's four rows. Y2/Y3 accumulate the group's re/im outputs;
// Y0/Y1 hold the broadcast input re/im, Y4–Y7 products.
TEXT ·applyU4AVX2(SB), NOSPLIT, $0-72
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ re_len+8(FP), DX
	SHRQ $2, DX
	JZ   done
	MOVQ pk+48(FP), AX
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	VMOVUPD 128(AX), Y12
	VMOVUPD 160(AX), Y13
	VMOVUPD 192(AX), Y14
	VMOVUPD 224(AX), Y15
	MOVQ sa+56(FP), R11
	MOVQ sb+64(FP), R12
	LEAQ -1(R11), R8
	LEAQ -1(R12), R9
	LEAQ (R11)(R12*1), R13
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $3, R13
	XORQ CX, CX

group:
	MOVQ CX, AX
	ANDQ R8, AX
	LEAQ (CX)(CX*1), R10
	SUBQ AX, R10
	MOVQ R10, AX
	ANDQ R9, AX
	ADDQ R10, R10
	SUBQ AX, R10
	LEAQ (DI)(R10*8), BX
	LEAQ (SI)(R10*8), R10

	// Column 0 starts the sums: re = u·x0r − u′·x0i, im = u·x0i + u′·x0r.
	VBROADCASTSD (R10), Y0
	VBROADCASTSD (BX), Y1
	VMULPD       Y8, Y0, Y2
	VMULPD       Y9, Y1, Y4
	VSUBPD       Y4, Y2, Y2
	VMULPD       Y8, Y1, Y3
	VMULPD       Y9, Y0, Y5
	VADDPD       Y5, Y3, Y3

	// Columns 1–3: re += u·xr, re −= u′·xi; im += u·xi, im += u′·xr.
	VBROADCASTSD (R10)(R11*1), Y0
	VBROADCASTSD (BX)(R11*1), Y1
	VMULPD       Y10, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y11, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y10, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y11, Y0, Y7
	VADDPD       Y7, Y3, Y3

	VBROADCASTSD (R10)(R12*1), Y0
	VBROADCASTSD (BX)(R12*1), Y1
	VMULPD       Y12, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y13, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y12, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y13, Y0, Y7
	VADDPD       Y7, Y3, Y3

	VBROADCASTSD (R10)(R13*1), Y0
	VBROADCASTSD (BX)(R13*1), Y1
	VMULPD       Y14, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y15, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y14, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y15, Y0, Y7
	VADDPD       Y7, Y3, Y3

	// Scatter lane r to amplitude r of the group.
	VMOVSD       X2, (R10)
	VMOVHPD      X2, (R10)(R11*1)
	VEXTRACTF128 $1, Y2, X4
	VMOVSD       X4, (R10)(R12*1)
	VMOVHPD      X4, (R10)(R13*1)
	VMOVSD       X3, (BX)
	VMOVHPD      X3, (BX)(R11*1)
	VEXTRACTF128 $1, Y3, X5
	VMOVSD       X5, (BX)(R12*1)
	VMOVHPD      X5, (BX)(R13*1)

	INCQ CX
	CMPQ CX, DX
	JB   group

done:
	VZEROUPPER
	RET

// func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, sa, sb int)
//
// Registers: AX pr, BX pim, CX lr, DX lim, DI pk (U† packed), SI g, R8/R9/
// R10 = sa/sb/sa+sb in bytes, R11 j, R12/R13 the group's re/im pointers.
// The qa/qb masks and the group count live in the frame. Y8–Y15 hold K:
// row r's re parts in Y(8+2r), im parts in Y(9+2r), the lanes across the
// column c. Per group, Y0/Y1 hold ψ_pre's re/im (lanes across c), Y2/Y3 the
// broadcast input re/im, Y4/Y5 products, Y6/Y7 λ_pre's re/im.
TEXT ·revU4AVX2(SB), NOSPLIT, $24-128
	MOVQ pr_len+8(FP), R12
	SHRQ $2, R12
	JZ   done
	MOVQ R12, n-8(SP)
	MOVQ sa+112(FP), R8
	MOVQ sb+120(FP), R9
	LEAQ -1(R8), R12
	MOVQ R12, ma-16(SP)
	LEAQ -1(R9), R12
	MOVQ R12, mb-24(SP)
	LEAQ (R8)(R9*1), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	MOVQ pr_base+0(FP), AX
	MOVQ pim_base+24(FP), BX
	MOVQ lr_base+48(FP), CX
	MOVQ lim_base+72(FP), DX
	MOVQ pk+96(FP), DI

	// De-interleave K's rows: [r0 i0 r1 i1][r2 i2 r3 i3] → [r0 r1 r2 r3],
	// [i0 i1 i2 i3]. Moves only, so no value changes.
	MOVQ      k+104(FP), R12
	VMOVUPD   0(R12), Y0
	VMOVUPD   32(R12), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xd8, Y2, Y8
	VPERMPD   $0xd8, Y3, Y9
	VMOVUPD   64(R12), Y0
	VMOVUPD   96(R12), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xd8, Y2, Y10
	VPERMPD   $0xd8, Y3, Y11
	VMOVUPD   128(R12), Y0
	VMOVUPD   160(R12), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xd8, Y2, Y12
	VPERMPD   $0xd8, Y3, Y13
	VMOVUPD   192(R12), Y0
	VMOVUPD   224(R12), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xd8, Y2, Y14
	VPERMPD   $0xd8, Y3, Y15
	XORQ      SI, SI

group:
	MOVQ SI, R12
	ANDQ ma-16(SP), R12
	LEAQ (SI)(SI*1), R11
	SUBQ R12, R11
	MOVQ R11, R12
	ANDQ mb-24(SP), R12
	ADDQ R11, R11
	SUBQ R12, R11
	LEAQ (AX)(R11*8), R12
	LEAQ (BX)(R11*8), R13

	// ψ_pre = U†ψ, as applyU4AVX2 computes its output.
	VBROADCASTSD (R12), Y2
	VBROADCASTSD (R13), Y3
	VMULPD       0(DI), Y2, Y0
	VMULPD       32(DI), Y3, Y4
	VSUBPD       Y4, Y0, Y0
	VMULPD       0(DI), Y3, Y1
	VMULPD       32(DI), Y2, Y5
	VADDPD       Y5, Y1, Y1

	VBROADCASTSD (R12)(R8*1), Y2
	VBROADCASTSD (R13)(R8*1), Y3
	VMULPD       64(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       96(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       64(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       96(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VBROADCASTSD (R12)(R9*1), Y2
	VBROADCASTSD (R13)(R9*1), Y3
	VMULPD       128(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       160(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       128(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       160(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VBROADCASTSD (R12)(R10*1), Y2
	VBROADCASTSD (R13)(R10*1), Y3
	VMULPD       192(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       224(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       192(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       224(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VMOVSD       X0, (R12)
	VMOVHPD      X0, (R12)(R8*1)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD       X4, (R12)(R9*1)
	VMOVHPD      X4, (R12)(R10*1)
	VMOVSD       X1, (R13)
	VMOVHPD      X1, (R13)(R8*1)
	VEXTRACTF128 $1, Y1, X5
	VMOVSD       X5, (R13)(R9*1)
	VMOVHPD      X5, (R13)(R10*1)

	// Row r of λ: K row r += ψ_pre·conj(λ_r), K_r += P·l_rʳ + P′·l_rⁱ and
	// K_r′ += P′·l_rʳ − P·l_rⁱ; then λ_pre takes its column-r term.
	LEAQ (CX)(R11*8), R12
	LEAQ (DX)(R11*8), R13

	VBROADCASTSD (R12), Y2
	VBROADCASTSD (R13), Y3
	VMULPD       Y2, Y0, Y4
	VMULPD       Y3, Y1, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VMULPD       Y2, Y1, Y4
	VMULPD       Y3, Y0, Y5
	VSUBPD       Y5, Y4, Y4
	VADDPD       Y4, Y9, Y9
	VMULPD       0(DI), Y2, Y6
	VMULPD       32(DI), Y3, Y4
	VSUBPD       Y4, Y6, Y6
	VMULPD       0(DI), Y3, Y7
	VMULPD       32(DI), Y2, Y5
	VADDPD       Y5, Y7, Y7

	VBROADCASTSD (R12)(R8*1), Y2
	VBROADCASTSD (R13)(R8*1), Y3
	VMULPD       Y2, Y0, Y4
	VMULPD       Y3, Y1, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y10, Y10
	VMULPD       Y2, Y1, Y4
	VMULPD       Y3, Y0, Y5
	VSUBPD       Y5, Y4, Y4
	VADDPD       Y4, Y11, Y11
	VMULPD       64(DI), Y2, Y4
	VADDPD       Y4, Y6, Y6
	VMULPD       96(DI), Y3, Y5
	VSUBPD       Y5, Y6, Y6
	VMULPD       64(DI), Y3, Y4
	VADDPD       Y4, Y7, Y7
	VMULPD       96(DI), Y2, Y5
	VADDPD       Y5, Y7, Y7

	VBROADCASTSD (R12)(R9*1), Y2
	VBROADCASTSD (R13)(R9*1), Y3
	VMULPD       Y2, Y0, Y4
	VMULPD       Y3, Y1, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y12, Y12
	VMULPD       Y2, Y1, Y4
	VMULPD       Y3, Y0, Y5
	VSUBPD       Y5, Y4, Y4
	VADDPD       Y4, Y13, Y13
	VMULPD       128(DI), Y2, Y4
	VADDPD       Y4, Y6, Y6
	VMULPD       160(DI), Y3, Y5
	VSUBPD       Y5, Y6, Y6
	VMULPD       128(DI), Y3, Y4
	VADDPD       Y4, Y7, Y7
	VMULPD       160(DI), Y2, Y5
	VADDPD       Y5, Y7, Y7

	VBROADCASTSD (R12)(R10*1), Y2
	VBROADCASTSD (R13)(R10*1), Y3
	VMULPD       Y2, Y0, Y4
	VMULPD       Y3, Y1, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y14, Y14
	VMULPD       Y2, Y1, Y4
	VMULPD       Y3, Y0, Y5
	VSUBPD       Y5, Y4, Y4
	VADDPD       Y4, Y15, Y15
	VMULPD       192(DI), Y2, Y4
	VADDPD       Y4, Y6, Y6
	VMULPD       224(DI), Y3, Y5
	VSUBPD       Y5, Y6, Y6
	VMULPD       192(DI), Y3, Y4
	VADDPD       Y4, Y7, Y7
	VMULPD       224(DI), Y2, Y5
	VADDPD       Y5, Y7, Y7

	VMOVSD       X6, (R12)
	VMOVHPD      X6, (R12)(R8*1)
	VEXTRACTF128 $1, Y6, X4
	VMOVSD       X4, (R12)(R9*1)
	VMOVHPD      X4, (R12)(R10*1)
	VMOVSD       X7, (R13)
	VMOVHPD      X7, (R13)(R8*1)
	VEXTRACTF128 $1, Y7, X5
	VMOVSD       X5, (R13)(R9*1)
	VMOVHPD      X5, (R13)(R10*1)

	INCQ SI
	CMPQ SI, n-8(SP)
	JB   group

	// Re-interleave K: [r0 r1 r2 r3], [i0 i1 i2 i3] → [r0 i0 r1 i1][r2 i2 r3 i3].
	MOVQ      k+104(FP), R12
	VPERMPD   $0xd8, Y8, Y0
	VPERMPD   $0xd8, Y9, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   Y2, 0(R12)
	VMOVUPD   Y3, 32(R12)
	VPERMPD   $0xd8, Y10, Y0
	VPERMPD   $0xd8, Y11, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   Y2, 64(R12)
	VMOVUPD   Y3, 96(R12)
	VPERMPD   $0xd8, Y12, Y0
	VPERMPD   $0xd8, Y13, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   Y2, 128(R12)
	VMOVUPD   Y3, 160(R12)
	VPERMPD   $0xd8, Y14, Y0
	VPERMPD   $0xd8, Y15, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   Y2, 192(R12)
	VMOVUPD   Y3, 224(R12)

done:
	VZEROUPPER
	RET
