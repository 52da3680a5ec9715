package ad

// gemm4x8 computes the 4×cols block of C at c, cols a multiple of 8, as
// 4×8 tiles held in eight YMM accumulators. For each term l in ascending
// order it loads B's row l (stride ldc) across the tile's eight columns,
// broadcasts A's term l of each of the four rows (a[r*aRow+l*aRed]), and
// updates every lane with one VMULPD and one VADDPD, never a fused
// multiply-add. fresh starts the accumulators at zero and adds them to C at
// the end; otherwise they start from C. The caller guarantees red ≥ 1 and
// that every element touched is in range (gemmRange).
//
//go:noescape
func gemm4x8(c, a, b []float64, cols, red, ldc, aRow, aRed int, fresh bool)
