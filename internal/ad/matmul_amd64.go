package ad

// gemm4x8 computes the 4×cols block of C at c, cols a multiple of 8, as
// 4×8 tiles held in eight YMM accumulators. For each term l in ascending
// order it loads B's row l (stride ldc) across the tile's eight columns,
// broadcasts A's term l of each of the four rows (a[r*aRow+l*aRed]), and
// updates every lane with one VMULPD and one VADDPD, never a fused
// multiply-add. The accumulators start from C in mode gemmAcc and at +0
// otherwise; gemmFresh then adds them to C, and gemmStore writes them over
// C without reading it. The caller guarantees red ≥ 1 and that every
// element touched is in range (gemmRange).
//
//go:noescape
func gemm4x8(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode)

// gemm4x16 is gemm4x8 with 4×16 tiles held in eight ZMM accumulators, eight
// lanes each, for any cols ≥ 1: the last tile's missing columns are masked
// off (K1/K2), so they load as zero and are never stored, and a last tile
// of eight columns or fewer runs in the four low accumulators alone. The
// caller guarantees AVX-512F, red ≥ 1 and that every element of the
// 4×cols block is in range.
//
//go:noescape
func gemm4x16(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode)
