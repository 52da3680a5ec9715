#include "textflag.h"

// The opEmbedProd step kernels. Each walks len(yr) amplitudes, a multiple
// of four, four at a time with BX as the byte offset; lane l of a YMM
// register holds amplitude 4m + l of block m. Every expression runs in the
// Go loop's order (embed.go) as separately rounded VMULPD and VADDPD/VSUBPD
// steps; there is no fused multiply-add in this file. The reductions keep
// one partial sum per lane, loaded from and stored back to acc.

// func embedValAVX2(yr, yi, p0r, p0i, p1r, p1i []float64, k *[3]float64)
//
// Y13/Y14/Y15 = c, s, −s. p0 = c·y, p1r = s·yi, p1i = (−s)·yr.
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
	VBROADCASTSD 0(AX), Y13
	VBROADCASTSD 8(AX), Y14
	VBROADCASTSD 16(AX), Y15
	XORQ BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMULPD  Y13, Y0, Y2
	VMULPD  Y13, Y1, Y3
	VMULPD  Y14, Y1, Y4
	VMULPD  Y15, Y0, Y5
	VMOVUPD Y2, (R8)(BX*1)
	VMOVUPD Y3, (R9)(BX*1)
	VMOVUPD Y4, (R10)(BX*1)
	VMOVUPD Y5, (R11)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VZEROUPPER
	RET

// func embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, k *[5]float64)
//
// Y11–Y15 = c, s, dc, ds, −s. t0r = c·xr − ds·yr, t0i = c·xi − ds·yi,
// t1r = s·xi + dc·yi, t1i = (−s)·xr − dc·yr. All four inputs are loaded
// before any store, so t0 may be x.
TEXT ·embedTanAVX2(SB), NOSPLIT, $0-200
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
	MOVQ k+192(FP), AX
	VBROADCASTSD 0(AX), Y11
	VBROADCASTSD 8(AX), Y12
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y14
	VBROADCASTSD 32(AX), Y15
	XORQ BX, BX

loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD (R9)(BX*1), Y3
	VMULPD  Y11, Y0, Y4
	VMULPD  Y14, Y2, Y5
	VSUBPD  Y5, Y4, Y4
	VMULPD  Y11, Y1, Y6
	VMULPD  Y14, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y12, Y1, Y8
	VMULPD  Y13, Y3, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y15, Y0, Y9
	VMULPD  Y13, Y2, Y10
	VSUBPD  Y10, Y9, Y9
	VMOVUPD Y4, (R10)(BX*1)
	VMOVUPD Y6, (R11)(BX*1)
	VMOVUPD Y8, (R12)(BX*1)
	VMOVUPD Y9, (R13)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VZEROUPPER
	RET

// func embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi []float64, k *[2]float64, acc *[8]float64)
//
// Y14/Y15 = c, s; Y8/Y9 the lane sums acc[0:4], acc[4:8].
// g0 += a0r·yr + a0i·yi, g1 += a1r·yi − a1i·yr, then
// m0r = c·a0r − s·a1i, m0i = c·a0i + s·a1r.
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
	VBROADCASTSD 0(AX), Y14
	VBROADCASTSD 8(AX), Y15
	MOVQ    acc+152(FP), DX
	VMOVUPD 0(DX), Y8
	VMOVUPD 32(DX), Y9
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
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y9, Y9
	VMULPD  Y14, Y0, Y6
	VMULPD  Y15, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VMOVUPD Y6, (SI)(BX*1)
	VMULPD  Y14, Y1, Y6
	VMULPD  Y15, Y2, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	VMOVUPD Y8, 0(DX)
	VMOVUPD Y9, 32(DX)
	VZEROUPPER
	RET

// func embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, k *[4]float64, acc *[16]float64)
//
// Y12–Y15 = c, s, dc, −ds; Y8–Y11 the lane sums acc[0:4] … acc[12:16].
// gt0 += a0r·xr + a0i·xi, gt1 += a1r·xi − a1i·xr,
// gn0 += a0r·yr + a0i·yi, gn1 += a1r·yi − a1i·yr,
// m0r += (−ds)·a0r − dc·a1i, m0i += (−ds)·a0i + dc·a1r,
// n0r = c·a0r − s·a1i, n0i = c·a0i + s·a1r.
TEXT ·embedRevTanAVX2(SB), NOSPLIT, $0-256
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
	MOVQ k+240(FP), BX
	VBROADCASTSD 0(BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	MOVQ    acc+248(FP), BX
	VMOVUPD 0(BX), Y8
	VMOVUPD 32(BX), Y9
	VMOVUPD 64(BX), Y10
	VMOVUPD 96(BX), Y11
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
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y9, Y9
	VMOVUPD (R12)(BX*1), Y4
	VMOVUPD (R13)(BX*1), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y5, Y2, Y6
	VMULPD  Y4, Y3, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  Y6, Y11, Y11
	VMULPD  Y15, Y0, Y4
	VMULPD  Y14, Y3, Y5
	VSUBPD  Y5, Y4, Y4
	VADDPD  (AX)(BX*1), Y4, Y4
	VMOVUPD Y4, (AX)(BX*1)
	VMULPD  Y15, Y1, Y4
	VMULPD  Y14, Y2, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DX)(BX*1), Y4, Y4
	VMOVUPD Y4, (DX)(BX*1)
	VMULPD  Y12, Y0, Y4
	VMULPD  Y13, Y3, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y4, (SI)(BX*1)
	VMULPD  Y12, Y1, Y4
	VMULPD  Y13, Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, CX
	JB      loop
	MOVQ    acc+248(FP), BX
	VMOVUPD Y8, 0(BX)
	VMOVUPD Y9, 32(BX)
	VMOVUPD Y10, 64(BX)
	VMOVUPD Y11, 96(BX)
	VZEROUPPER
	RET
