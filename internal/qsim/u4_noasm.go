//go:build !amd64

package qsim

// The opU4 and embedding kernels have no assembly off amd64; useSIMD is
// never set there.

func applyU4AVX2(re, im []float64, pk *[32]float64, ma, mb int, step *[64]int) {
	panic("qsim: no SIMD opU4 kernel on this architecture")
}

func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, ma, mb int, step *[64]int) {
	panic("qsim: no SIMD opU4 kernel on this architecture")
}

func embedValAVX2(yr, yi, p0r, p0i, p1r, p1i []float64, k *[4]float64) {
	panic("qsim: no SIMD embedding kernel on this architecture")
}

func embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, u, du *[4]float64, d float64) {
	panic("qsim: no SIMD embedding kernel on this architecture")
}

func embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi []float64, k *[4]float64, g *[16]float64) {
	panic("qsim: no SIMD embedding kernel on this architecture")
}

func embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, u, du *[4]float64, d float64, gt, gn *[16]float64) {
	panic("qsim: no SIMD embedding kernel on this architecture")
}
