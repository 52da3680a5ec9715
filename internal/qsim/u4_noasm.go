//go:build !amd64

package qsim

// The opU4 kernels have no assembly off amd64; useSIMD is never set there.

func applyU4AVX2(re, im []float64, pk *[32]float64, sa, sb int) {
	panic("qsim: no SIMD opU4 kernel on this architecture")
}

func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, sa, sb int) {
	panic("qsim: no SIMD opU4 kernel on this architecture")
}
