//go:build !amd64

package ad

// gemm4x8 and gemm4x16 have no implementation off amd64; useSIMD is never
// set there.
func gemm4x8(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode) {
	panic("ad: no SIMD GEMM kernel on this architecture")
}

func gemm4x16(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode) {
	panic("ad: no SIMD GEMM kernel on this architecture")
}
