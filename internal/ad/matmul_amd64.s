#include "textflag.h"

// func gemm4x8(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode)
//
// Registers: CX C tile, DI B tile, R13 B row, AX A rows, SI A term, BX terms
// left, DX tiles left; R8/R9 = 1×/3× A's row stride, R10 = A's term stride,
// R11/R12 = 1×/3× ldc, all in bytes. Y0–Y7 accumulate rows 0–3, columns
// 0–3 and 4–7; Y8/Y9 hold B's row, Y10/Y13 the broadcast A term, Y11/Y12/
// Y14/Y15 the products. mode 0 (gemmAcc) loads the accumulators from C,
// the others zero them; mode 1 (gemmFresh) adds C back before the store.
TEXT ·gemm4x8(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ b_base+48(FP), DI
	MOVQ cols+72(FP), DX
	MOVQ ldc+88(FP), R11
	MOVQ aRow+96(FP), R8
	MOVQ aRed+104(FP), R10
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R12
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	SHLQ $3, R10
	SHRQ $3, DX
	JZ   done

tile:
	MOVQ AX, SI
	MOVQ DI, R13
	MOVQ red+80(FP), BX
	CMPQ mode+112(FP), $0
	JNE  zero
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD (CX)(R11*1), Y2
	VMOVUPD 32(CX)(R11*1), Y3
	VMOVUPD (CX)(R11*2), Y4
	VMOVUPD 32(CX)(R11*2), Y5
	VMOVUPD (CX)(R12*1), Y6
	VMOVUPD 32(CX)(R12*1), Y7
	JMP  term

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// Start the loop on a cache line: its body then spans two lines, and
	// its closing jump crosses no 32-byte boundary, which the Skylake
	// JCC-erratum microcode would send to the slow legacy decoders.
	PCALIGN $64

term:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (SI)(R8*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (SI)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (SI)(R9*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R10, SI
	ADDQ         R11, R13
	DECQ         BX
	JNZ          term

	CMPQ mode+112(FP), $1
	JNE  store
	// C += sum, with C as the first operand like the scalar c += s.
	VMOVUPD (CX), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD 32(CX), Y9
	VADDPD  Y1, Y9, Y1
	VMOVUPD (CX)(R11*1), Y10
	VADDPD  Y2, Y10, Y2
	VMOVUPD 32(CX)(R11*1), Y11
	VADDPD  Y3, Y11, Y3
	VMOVUPD (CX)(R11*2), Y12
	VADDPD  Y4, Y12, Y4
	VMOVUPD 32(CX)(R11*2), Y13
	VADDPD  Y5, Y13, Y5
	VMOVUPD (CX)(R12*1), Y14
	VADDPD  Y6, Y14, Y6
	VMOVUPD 32(CX)(R12*1), Y15
	VADDPD  Y7, Y15, Y7

store:
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, (CX)(R11*1)
	VMOVUPD Y3, 32(CX)(R11*1)
	VMOVUPD Y4, (CX)(R11*2)
	VMOVUPD Y5, 32(CX)(R11*2)
	VMOVUPD Y6, (CX)(R12*1)
	VMOVUPD Y7, 32(CX)(R12*1)
	ADDQ    $64, CX
	ADDQ    $64, DI
	DECQ    DX
	JNZ     tile

done:
	VZEROUPPER
	RET

// func gemm4x16(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode)
//
// gemm4x8's register plan with ZMM registers: Z0–Z7 accumulate rows 0–3,
// columns 0–7 and 8–15 of a 4×16 tile; Z8/Z9 hold B's row, Z10/Z13 the
// broadcast A term, Z11/Z12/Z14/Z15 the products. DX counts tiles, the last
// one partial unless cols is a multiple of 16. K1/K2 mask the low and high
// eight columns of a tile: all set until the last tile, which takes K3's
// cols mod 16 low bits (all 16 if none). Masked-off lanes load as zero and
// are never stored, so nothing outside the block is read or written. A last
// tile of eight columns or fewer (K2 empty) runs the half-width loop at
// half: the same terms in the same order, in Z0/Z2/Z4/Z6 alone.
TEXT ·gemm4x16(SB), NOSPLIT, $0-120
	MOVQ  cols+72(FP), DX
	TESTQ DX, DX
	JZ    done

	// K3 = 2^t - 1 for the t = (cols-1) mod 16 + 1 columns of the last
	// tile; DX = ceil(cols/16) tiles.
	LEAQ   -1(DX), CX
	ANDL   $15, CX
	MOVL   $2, BX
	SHLL   CX, BX
	DECL   BX
	KMOVW  BX, K3
	ADDQ   $15, DX
	SHRQ   $4, DX
	KXNORW K1, K1, K1
	KXNORW K2, K2, K2

	MOVQ c_base+0(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ b_base+48(FP), DI
	MOVQ ldc+88(FP), R11
	MOVQ aRow+96(FP), R8
	MOVQ aRed+104(FP), R10
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R12
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	SHLQ $3, R10

tile:
	CMPQ DX, $1
	JNE  body
	KMOVW    K3, K1
	KSHIFTRW $8, K3, K2
	KORTESTW K2, K2
	JZ       half

body:
	MOVQ AX, SI
	MOVQ DI, R13
	MOVQ red+80(FP), BX
	CMPQ mode+112(FP), $0
	JNE  zero
	VMOVUPD.Z (CX), K1, Z0
	VMOVUPD.Z 64(CX), K2, Z1
	VMOVUPD.Z (CX)(R11*1), K1, Z2
	VMOVUPD.Z 64(CX)(R11*1), K2, Z3
	VMOVUPD.Z (CX)(R11*2), K1, Z4
	VMOVUPD.Z 64(CX)(R11*2), K2, Z5
	VMOVUPD.Z (CX)(R12*1), K1, Z6
	VMOVUPD.Z 64(CX)(R12*1), K2, Z7
	JMP  term

zero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	PCALIGN $64

term:
	VMOVUPD.Z    (R13), K1, Z8
	VMOVUPD.Z    64(R13), K2, Z9
	VBROADCASTSD (SI), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z1, Z1
	VBROADCASTSD (SI)(R8*1), Z13
	VMULPD       Z8, Z13, Z14
	VADDPD       Z14, Z2, Z2
	VMULPD       Z9, Z13, Z15
	VADDPD       Z15, Z3, Z3
	VBROADCASTSD (SI)(R8*2), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VMULPD       Z9, Z10, Z12
	VADDPD       Z12, Z5, Z5
	VBROADCASTSD (SI)(R9*1), Z13
	VMULPD       Z8, Z13, Z14
	VADDPD       Z14, Z6, Z6
	VMULPD       Z9, Z13, Z15
	VADDPD       Z15, Z7, Z7
	ADDQ         R10, SI
	ADDQ         R11, R13
	DECQ         BX
	JNZ          term

	CMPQ mode+112(FP), $1
	JNE  store
	// C += sum, with C as the first operand like the scalar c += s.
	VMOVUPD.Z (CX), K1, Z8
	VADDPD    Z0, Z8, Z0
	VMOVUPD.Z 64(CX), K2, Z9
	VADDPD    Z1, Z9, Z1
	VMOVUPD.Z (CX)(R11*1), K1, Z10
	VADDPD    Z2, Z10, Z2
	VMOVUPD.Z 64(CX)(R11*1), K2, Z11
	VADDPD    Z3, Z11, Z3
	VMOVUPD.Z (CX)(R11*2), K1, Z12
	VADDPD    Z4, Z12, Z4
	VMOVUPD.Z 64(CX)(R11*2), K2, Z13
	VADDPD    Z5, Z13, Z5
	VMOVUPD.Z (CX)(R12*1), K1, Z14
	VADDPD    Z6, Z14, Z6
	VMOVUPD.Z 64(CX)(R12*1), K2, Z15
	VADDPD    Z7, Z15, Z7

store:
	VMOVUPD Z0, K1, (CX)
	VMOVUPD Z1, K2, 64(CX)
	VMOVUPD Z2, K1, (CX)(R11*1)
	VMOVUPD Z3, K2, 64(CX)(R11*1)
	VMOVUPD Z4, K1, (CX)(R11*2)
	VMOVUPD Z5, K2, 64(CX)(R11*2)
	VMOVUPD Z6, K1, (CX)(R12*1)
	VMOVUPD Z7, K2, 64(CX)(R12*1)
	ADDQ    $128, CX
	ADDQ    $128, DI
	DECQ    DX
	JNZ     tile

done:
	VZEROUPPER
	RET

	// The last tile has eight columns or fewer: only the low halves of its
	// rows hold columns, so Z1/Z3/Z5/Z7 and B's high half are left out.
half:
	MOVQ AX, SI
	MOVQ DI, R13
	MOVQ red+80(FP), BX
	CMPQ mode+112(FP), $0
	JNE  hzero
	VMOVUPD.Z (CX), K1, Z0
	VMOVUPD.Z (CX)(R11*1), K1, Z2
	VMOVUPD.Z (CX)(R11*2), K1, Z4
	VMOVUPD.Z (CX)(R12*1), K1, Z6
	JMP  hterm

hzero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2
	VPXORQ Z4, Z4, Z4
	VPXORQ Z6, Z6, Z6

	PCALIGN $64

hterm:
	VMOVUPD.Z    (R13), K1, Z8
	VBROADCASTSD (SI), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z0, Z0
	VBROADCASTSD (SI)(R8*1), Z13
	VMULPD       Z8, Z13, Z14
	VADDPD       Z14, Z2, Z2
	VBROADCASTSD (SI)(R8*2), Z10
	VMULPD       Z8, Z10, Z11
	VADDPD       Z11, Z4, Z4
	VBROADCASTSD (SI)(R9*1), Z13
	VMULPD       Z8, Z13, Z14
	VADDPD       Z14, Z6, Z6
	ADDQ         R10, SI
	ADDQ         R11, R13
	DECQ         BX
	JNZ          hterm

	CMPQ mode+112(FP), $1
	JNE  hstore
	VMOVUPD.Z (CX), K1, Z8
	VADDPD    Z0, Z8, Z0
	VMOVUPD.Z (CX)(R11*1), K1, Z10
	VADDPD    Z2, Z10, Z2
	VMOVUPD.Z (CX)(R11*2), K1, Z12
	VADDPD    Z4, Z12, Z4
	VMOVUPD.Z (CX)(R12*1), K1, Z14
	VADDPD    Z6, Z14, Z6

hstore:
	VMOVUPD Z0, K1, (CX)
	VMOVUPD Z2, K1, (CX)(R11*1)
	VMOVUPD Z4, K1, (CX)(R11*2)
	VMOVUPD Z6, K1, (CX)(R12*1)
	VZEROUPPER
	RET
