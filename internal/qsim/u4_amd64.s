#include "textflag.h"

// Both kernels walk len(re)/4 groups in the order of the block's groupWalk:
// group 0's base index j0 is 0 and group g+1's is j0 ^ step[tz(g+1)]. The
// group's four amplitudes sit at j0, j0^ma, j0^mb and j0^ma^mb; under the
// identity frame that is bit insertion at the pair's qubits, ascending.
// Every sum below runs in the scalar Go expression's order as separately
// rounded VMULPD and VADDPD/VSUBPD steps; there is no fused multiply-add
// anywhere in this file.

// func applyU4AVX2(re, im []float64, pk *[32]float64, ma, mb int, step *[64]int)
//
// Registers: SI re, DI im, DX groups, CX g, R8 step, R9 the group's base
// j0, R10/R11/R12 = ma/mb/ma^mb, AX/BX/R13 the other members j0^ma,
// j0^mb and j0^ma^mb. Y8–Y15 hold pk: column c's re parts in Y(8+2c), im
// parts in Y(9+2c), the lanes across U's four rows. Y2/Y3 accumulate the
// group's re/im outputs; Y0/Y1 hold the broadcast input re/im, Y4–Y7
// products.
TEXT ·applyU4AVX2(SB), NOSPLIT, $0-80
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
	MOVQ ma+56(FP), R10
	MOVQ mb+64(FP), R11
	MOVQ R10, R12
	XORQ R11, R12
	MOVQ step+72(FP), R8
	XORQ CX, CX
	XORQ R9, R9

group:
	MOVQ R9, AX
	XORQ R10, AX
	MOVQ R9, BX
	XORQ R11, BX
	MOVQ R9, R13
	XORQ R12, R13

	// Column 0 starts the sums: re = u·x0r − u′·x0i, im = u·x0i + u′·x0r.
	VBROADCASTSD (SI)(R9*8), Y0
	VBROADCASTSD (DI)(R9*8), Y1
	VMULPD       Y8, Y0, Y2
	VMULPD       Y9, Y1, Y4
	VSUBPD       Y4, Y2, Y2
	VMULPD       Y8, Y1, Y3
	VMULPD       Y9, Y0, Y5
	VADDPD       Y5, Y3, Y3

	// Columns 1–3: re += u·xr, re −= u′·xi; im += u·xi, im += u′·xr.
	VBROADCASTSD (SI)(AX*8), Y0
	VBROADCASTSD (DI)(AX*8), Y1
	VMULPD       Y10, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y11, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y10, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y11, Y0, Y7
	VADDPD       Y7, Y3, Y3

	VBROADCASTSD (SI)(BX*8), Y0
	VBROADCASTSD (DI)(BX*8), Y1
	VMULPD       Y12, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y13, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y12, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y13, Y0, Y7
	VADDPD       Y7, Y3, Y3

	VBROADCASTSD (SI)(R13*8), Y0
	VBROADCASTSD (DI)(R13*8), Y1
	VMULPD       Y14, Y0, Y4
	VADDPD       Y4, Y2, Y2
	VMULPD       Y15, Y1, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       Y14, Y1, Y6
	VADDPD       Y6, Y3, Y3
	VMULPD       Y15, Y0, Y7
	VADDPD       Y7, Y3, Y3

	// Scatter lane r to amplitude r of the group.
	VMOVSD       X2, (SI)(R9*8)
	VMOVHPD      X2, (SI)(AX*8)
	VEXTRACTF128 $1, Y2, X4
	VMOVSD       X4, (SI)(BX*8)
	VMOVHPD      X4, (SI)(R13*8)
	VMOVSD       X3, (DI)(R9*8)
	VMOVHPD      X3, (DI)(AX*8)
	VEXTRACTF128 $1, Y3, X5
	VMOVSD       X5, (DI)(BX*8)
	VMOVHPD      X5, (DI)(R13*8)

	// Next base: j0 ^= step[tz(g+1)].
	INCQ CX
	BSFQ CX, AX
	XORQ (R8)(AX*8), R9
	CMPQ CX, DX
	JB   group

done:
	VZEROUPPER
	RET

// func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, ma, mb int, step *[64]int)
//
// Registers: AX pr, BX pim, CX lr, DX lim, DI pk (U† packed), SI g, R8 the
// group's base j0, R9/R10/R11 the other members j0^ma, j0^mb and
// j0^ma^mb, R12 scratch, R13 step. The group count and the masks ma, mb
// and ma^mb live in the frame. Y8–Y15 hold K: row r's re parts in
// Y(8+2r), im parts in Y(9+2r), the lanes across the column c. Per group, Y0/Y1 hold ψ_pre's re/im (lanes across c), Y2/Y3 the
// broadcast input re/im, Y4/Y5 products, Y6/Y7 λ_pre's re/im.
TEXT ·revU4AVX2(SB), NOSPLIT, $32-136
	MOVQ pr_len+8(FP), R12
	SHRQ $2, R12
	JZ   done
	MOVQ R12, n-8(SP)
	MOVQ ma+112(FP), R8
	MOVQ R8, ma-16(SP)
	MOVQ mb+120(FP), R9
	MOVQ R9, mb-24(SP)
	XORQ R8, R9
	MOVQ R9, mab-32(SP)
	MOVQ step+128(FP), R13
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
	XORQ      R8, R8

group:
	MOVQ R8, R9
	XORQ ma-16(SP), R9
	MOVQ R8, R10
	XORQ mb-24(SP), R10
	MOVQ R8, R11
	XORQ mab-32(SP), R11

	// ψ_pre = U†ψ, as applyU4AVX2 computes its output.
	VBROADCASTSD (AX)(R8*8), Y2
	VBROADCASTSD (BX)(R8*8), Y3
	VMULPD       0(DI), Y2, Y0
	VMULPD       32(DI), Y3, Y4
	VSUBPD       Y4, Y0, Y0
	VMULPD       0(DI), Y3, Y1
	VMULPD       32(DI), Y2, Y5
	VADDPD       Y5, Y1, Y1

	VBROADCASTSD (AX)(R9*8), Y2
	VBROADCASTSD (BX)(R9*8), Y3
	VMULPD       64(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       96(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       64(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       96(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VBROADCASTSD (AX)(R10*8), Y2
	VBROADCASTSD (BX)(R10*8), Y3
	VMULPD       128(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       160(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       128(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       160(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VBROADCASTSD (AX)(R11*8), Y2
	VBROADCASTSD (BX)(R11*8), Y3
	VMULPD       192(DI), Y2, Y4
	VADDPD       Y4, Y0, Y0
	VMULPD       224(DI), Y3, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       192(DI), Y3, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       224(DI), Y2, Y7
	VADDPD       Y7, Y1, Y1

	VMOVSD       X0, (AX)(R8*8)
	VMOVHPD      X0, (AX)(R9*8)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD       X4, (AX)(R10*8)
	VMOVHPD      X4, (AX)(R11*8)
	VMOVSD       X1, (BX)(R8*8)
	VMOVHPD      X1, (BX)(R9*8)
	VEXTRACTF128 $1, Y1, X5
	VMOVSD       X5, (BX)(R10*8)
	VMOVHPD      X5, (BX)(R11*8)

	// Row r of λ: K row r += ψ_pre·conj(λ_r), K_r += P·l_rʳ + P′·l_rⁱ and
	// K_r′ += P′·l_rʳ − P·l_rⁱ; then λ_pre takes its column-r term.

	VBROADCASTSD (CX)(R8*8), Y2
	VBROADCASTSD (DX)(R8*8), Y3
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

	VBROADCASTSD (CX)(R9*8), Y2
	VBROADCASTSD (DX)(R9*8), Y3
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

	VBROADCASTSD (CX)(R10*8), Y2
	VBROADCASTSD (DX)(R10*8), Y3
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

	VBROADCASTSD (CX)(R11*8), Y2
	VBROADCASTSD (DX)(R11*8), Y3
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

	VMOVSD       X6, (CX)(R8*8)
	VMOVHPD      X6, (CX)(R9*8)
	VEXTRACTF128 $1, Y6, X4
	VMOVSD       X4, (CX)(R10*8)
	VMOVHPD      X4, (CX)(R11*8)
	VMOVSD       X7, (DX)(R8*8)
	VMOVHPD      X7, (DX)(R9*8)
	VEXTRACTF128 $1, Y7, X5
	VMOVSD       X5, (DX)(R10*8)
	VMOVHPD      X5, (DX)(R11*8)

	// Next base: j0 ^= step[tz(g+1)].
	INCQ SI
	BSFQ SI, R12
	XORQ (R13)(R12*8), R8
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
