#include "textflag.h"

// The opEmbedProd step kernels. Each walks len(yr) amplitudes, a multiple
// of four, four at a time with BX as the byte offset; lane l of a YMM
// register holds amplitude 4m + l of block m. Every expression runs in the
// Go loop's order (embed.go) as separately rounded VMULPD and VADDPD/VSUBPD
// steps; there is no fused multiply-add in this file. The factors are
// general complex numbers (u = W·e, and d·du with du = W·e′). The reductions keep one
// partial sum per lane, loaded from and stored back to acc.

// func embedValAVX2(yr, yi, p0r, p0i, p1r, p1i []float64, k *[4]float64)
//
// Y12–Y15 = u0r, u0i, u1r, u1i. p0r = u0r·yr − u0i·yi, p0i = u0r·yi +
// u0i·yr, p1r = u1r·yr − u1i·yi, p1i = u1r·yi + u1i·yr. Both inputs are
// loaded before any store, so p0 may be y.
TEXT ·embedValAVX2(SB), NOSPLIT, $0-152
	MOVQ yr_base+0(FP), SI
	MOVQ yi_base+24(FP), DI
	MOVQ p0r_base+48(FP), R8
	MOVQ p0i_base+72(FP), R9
	MOVQ p1r_base+96(FP), R10
	MOVQ p1i_base+120(FP), R11
	MOVQ yr_len+8(FP), CX
	SHLQ $3, CX
	MOVQ k+144(FP), AX
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	XORQ BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMULPD  Y12, Y0, Y2
	VMULPD  Y13, Y1, Y3
	VSUBPD  Y3, Y2, Y2
	VMULPD  Y12, Y1, Y4
	VMULPD  Y13, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y14, Y0, Y6
	VMULPD  Y15, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y14, Y1, Y8
	VMULPD  Y15, Y0, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y2, (R8)(BX*1)
	VMOVUPD Y4, (R9)(BX*1)
	VMOVUPD Y6, (R10)(BX*1)
	VMOVUPD Y8, (R11)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VZEROUPPER
	RET

// func embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, u, du *[4]float64, d float64)
//
// Y8–Y11 = u0r, u0i, u1r, u1i; Y12–Y15 = d0r, d0i, d1r, d1i, each the
// product d·du[i].
// t0r = (u0r·xr − u0i·xi) + (d0r·yr − d0i·yi),
// t0i = (u0r·xi + u0i·xr) + (d0r·yi + d0i·yr), and t1 likewise from u1, d1.
// All four inputs are loaded before any store, so t0 may be x.
TEXT ·embedTanAVX2(SB), NOSPLIT, $0-216
	MOVQ xr_base+0(FP), SI
	MOVQ xi_base+24(FP), DI
	MOVQ yr_base+48(FP), R8
	MOVQ yi_base+72(FP), R9
	MOVQ t0r_base+96(FP), R10
	MOVQ t0i_base+120(FP), R11
	MOVQ t1r_base+144(FP), R12
	MOVQ t1i_base+168(FP), R13
	MOVQ yr_len+56(FP), CX
	SHLQ $3, CX
	MOVQ u+192(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	MOVQ du+200(FP), AX
	VBROADCASTSD d+208(FP), Y7
	VBROADCASTSD 0(AX), Y12
	VMULPD       Y7, Y12, Y12
	VBROADCASTSD 8(AX), Y13
	VMULPD       Y7, Y13, Y13
	VBROADCASTSD 16(AX), Y14
	VMULPD       Y7, Y14, Y14
	VBROADCASTSD 24(AX), Y15
	VMULPD       Y7, Y15, Y15
	XORQ BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD (R9)(BX*1), Y3
	VMULPD  Y8, Y0, Y4
	VMULPD  Y9, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y12, Y2, Y5
	VMULPD  Y13, Y3, Y6
	VSUBPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (R10)(BX*1)
	VMULPD  Y8, Y1, Y4
	VMULPD  Y9, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y12, Y3, Y5
	VMULPD  Y13, Y2, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (R11)(BX*1)
	VMULPD  Y10, Y0, Y4
	VMULPD  Y11, Y1, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y14, Y2, Y5
	VMULPD  Y15, Y3, Y6
	VSUBPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (R12)(BX*1)
	VMULPD  Y10, Y1, Y4
	VMULPD  Y11, Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y14, Y3, Y5
	VMULPD  Y15, Y2, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (R13)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VZEROUPPER
	RET

// func embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi []float64, k *[4]float64, acc *[16]float64)
//
// Y12–Y15 = u0r, u0i, u1r, u1i; Y8–Y11 the lane sums acc[0:4] … acc[12:16].
// g0 += a0r·yr + a0i·yi, g1 += a0r·yi − a0i·yr,
// g2 += a1r·yr + a1i·yi, g3 += a1r·yi − a1i·yr, then
// m0r = (u0r·a0r + u0i·a0i) + (u1r·a1r + u1i·a1i),
// m0i = (u0r·a0i − u0i·a0r) + (u1r·a1i − u1i·a1r).
TEXT ·embedRevValAVX2(SB), NOSPLIT, $0-160
	MOVQ m0r_base+0(FP), SI
	MOVQ m0i_base+24(FP), DI
	MOVQ m1r_base+48(FP), R8
	MOVQ m1i_base+72(FP), R9
	MOVQ yr_base+96(FP), R10
	MOVQ yi_base+120(FP), R11
	MOVQ yr_len+104(FP), CX
	SHLQ $3, CX
	MOVQ k+144(FP), AX
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ    acc+152(FP), DX
	VMOVUPD 0(DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y11
	XORQ    BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD (R9)(BX*1), Y3
	VMOVUPD (R10)(BX*1), Y4
	VMOVUPD (R11)(BX*1), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y8, Y8
	VMULPD  Y5, Y0, Y6
	VMULPD  Y4, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y9, Y9
	VMULPD  Y4, Y2, Y6
	VMULPD  Y5, Y3, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y11, Y11
	VMULPD  Y12, Y0, Y4
	VMULPD  Y13, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y14, Y2, Y5
	VMULPD  Y15, Y3, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (SI)(BX*1)
	VMULPD  Y12, Y1, Y4
	VMULPD  Y13, Y0, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y14, Y3, Y5
	VMULPD  Y15, Y2, Y6
	VSUBPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VMOVUPD Y8, 0(DX)
	VMOVUPD Y9, 32(DX)
	VMOVUPD Y10, 64(DX)
	VMOVUPD Y11, 96(DX)
	VZEROUPPER
	RET

// func embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, u, du *[4]float64, d float64, gt, gn *[16]float64)
//
// The eight coefficients u0r, u0i, u1r, u1i and d0r, d0i, d1r, d1i (each
// the product d·du[i]) are broadcast into the frame at 0(SP) … 224(SP)
// and read as memory operands; Y8–Y11 are the lane sums gt[0:4] …
// gt[12:16] and Y12–Y15 those of gn.
// gt0 += a0r·xr + a0i·xi, gt1 += a0r·xi − a0i·xr,
// gt2 += a1r·xr + a1i·xi, gt3 += a1r·xi − a1i·xr, and gn0–gn3 likewise
// from y;
// m0r += (d0r·a0r + d0i·a0i) + (d1r·a1r + d1i·a1i),
// m0i += (d0r·a0i − d0i·a0r) + (d1r·a1i − d1i·a1r);
// n0r = (u0r·a0r + u0i·a0i) + (u1r·a1r + u1i·a1i),
// n0i = (u0r·a0i − u0i·a0r) + (u1r·a1i − u1i·a1r).
TEXT ·embedRevTanAVX2(SB), NOSPLIT, $256-280
	MOVQ n0r_base+0(FP), SI
	MOVQ n0i_base+24(FP), DI
	MOVQ n1r_base+48(FP), R8
	MOVQ n1i_base+72(FP), R9
	MOVQ xr_base+96(FP), R10
	MOVQ xi_base+120(FP), R11
	MOVQ yr_base+144(FP), R12
	MOVQ yi_base+168(FP), R13
	MOVQ m0r_base+192(FP), AX
	MOVQ m0i_base+216(FP), DX
	MOVQ yr_len+152(FP), CX
	SHLQ $3, CX
	MOVQ u+240(FP), BX
	VBROADCASTSD 0(BX), Y0
	VMOVUPD      Y0, 0(SP)
	VBROADCASTSD 8(BX), Y0
	VMOVUPD      Y0, 32(SP)
	VBROADCASTSD 16(BX), Y0
	VMOVUPD      Y0, 64(SP)
	VBROADCASTSD 24(BX), Y0
	VMOVUPD      Y0, 96(SP)
	MOVQ du+248(FP), BX
	VBROADCASTSD d+256(FP), Y1
	VBROADCASTSD 0(BX), Y0
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, 128(SP)
	VBROADCASTSD 8(BX), Y0
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, 160(SP)
	VBROADCASTSD 16(BX), Y0
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, 192(SP)
	VBROADCASTSD 24(BX), Y0
	VMULPD       Y1, Y0, Y0
	VMOVUPD      Y0, 224(SP)
	MOVQ    gt+264(FP), BX
	VMOVUPD 0(BX), Y8
	VMOVUPD 32(BX), Y9
	VMOVUPD 64(BX), Y10
	VMOVUPD 96(BX), Y11
	MOVQ    gn+272(FP), BX
	VMOVUPD 0(BX), Y12
	VMOVUPD 32(BX), Y13
	VMOVUPD 64(BX), Y14
	VMOVUPD 96(BX), Y15
	XORQ    BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD (R9)(BX*1), Y3
	VMOVUPD (R10)(BX*1), Y4
	VMOVUPD (R11)(BX*1), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y8, Y8
	VMULPD  Y5, Y0, Y6
	VMULPD  Y4, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y9, Y9
	VMULPD  Y4, Y2, Y6
	VMULPD  Y5, Y3, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y11, Y11
	VMOVUPD (R12)(BX*1), Y4
	VMOVUPD (R13)(BX*1), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y12, Y12
	VMULPD  Y5, Y0, Y6
	VMULPD  Y4, Y1, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y13, Y13
	VMULPD  Y4, Y2, Y6
	VMULPD  Y5, Y3, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y14, Y14
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y15, Y15
	VMULPD  128(SP), Y0, Y4
	VMULPD  160(SP), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  192(SP), Y2, Y5
	VMULPD  224(SP), Y3, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (AX)(BX*1), Y4, Y4
	VMOVUPD Y4, (AX)(BX*1)
	VMULPD  128(SP), Y1, Y4
	VMULPD  160(SP), Y0, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  192(SP), Y3, Y5
	VMULPD  224(SP), Y2, Y6
	VSUBPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DX)(BX*1), Y4, Y4
	VMOVUPD Y4, (DX)(BX*1)
	VMULPD  0(SP), Y0, Y4
	VMULPD  32(SP), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  64(SP), Y2, Y5
	VMULPD  96(SP), Y3, Y6
	VADDPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (SI)(BX*1)
	VMULPD  0(SP), Y1, Y4
	VMULPD  32(SP), Y0, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  64(SP), Y3, Y5
	VMULPD  96(SP), Y2, Y6
	VSUBPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	MOVQ    gt+264(FP), BX
	VMOVUPD Y8, 0(BX)
	VMOVUPD Y9, 32(BX)
	VMOVUPD Y10, 64(BX)
	VMOVUPD Y11, 96(BX)
	MOVQ    gn+272(FP), BX
	VMOVUPD Y12, 0(BX)
	VMOVUPD Y13, 32(BX)
	VMOVUPD Y14, 64(BX)
	VMOVUPD Y15, 96(BX)
	VZEROUPPER
	RET
