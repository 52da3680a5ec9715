package qsim

// The embedding step kernels below (embed_amd64.s) each process len(yr)
// amplitudes, a multiple of four, in YMM lanes of four; the Go wrappers in
// embed.go check that every slice has len(yr) elements. Each lane runs the
// Go loop's expressions in their order, products and sums separately
// rounded, with no fused multiply-add.

// embedValAVX2 is embedValStep's loop.
//
//go:noescape
func embedValAVX2(yr, yi, p0r, p0i, p1r, p1i []float64, k *[4]float64)

// embedTanAVX2 is embedTanStep's loop.
//
//go:noescape
func embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, u, du *[4]float64, d float64)

// embedRevValAVX2 is embedRevValStep's loop; acc holds the lane sums.
//
//go:noescape
func embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi []float64, k *[4]float64, acc *[16]float64)

// embedRevTanAVX2 is embedRevTanStep's loop; gt and gn hold the lane sums.
//
//go:noescape
func embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, u, du *[4]float64, d float64, gt, gn *[16]float64)
