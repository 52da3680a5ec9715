package qsim

import (
	"math/bits"

	"repro/internal/cpufeat"
)

// Each opU4 kernel has two implementations (see the package doc): the
// pure-Go loops below, which are the oracle and the fallback on every
// GOARCH, and the AVX2 assembly in u4_amd64.s. In the assembly each output
// is one SIMD lane that runs the Go expression's products and sums in its
// order; both visit the groups in the order of the block's groupWalk, the
// base of group g+1 being the base of g XOR step[tz(g+1)], and reach the
// other three amplitudes by XOR with the flip masks; and the adjoint keeps
// K de-interleaved in registers for a whole call, re-interleaving it at the
// end. The assembly has no bounds checks: newGroupWalk only builds walks
// that stay inside the register, and the Go wrappers check the walk's
// register width and the slice lengths once per call.

// useSIMD selects the assembly kernels: opU4's and the opEmbedProd step
// kernels (embed.go). It is set once from the CPU's features; tests clear it
// to run the pure-Go path.
var useSIMD = cpufeat.AVX2

// checkU4 panics unless w is a two-qubit walk of an nq-qubit register,
// dim = 2^nq, 0 ≤ lo ≤ hi, and re and im each hold the hi·dim amplitudes of
// samples [0, hi): the conditions under which neither opU4 kernel can touch
// an amplitude outside samples [lo, hi).
func checkU4(re, im []float64, lo, hi, nq, dim int, w *groupWalk) {
	if w.nq != nq || w.mb == 0 || dim != 1<<nq || lo < 0 || lo > hi ||
		len(re) < hi*dim || len(im) < hi*dim {
		panic("qsim: opU4 kernel: walk of another register or state too short")
	}
}

// packU4 copies the 4×4 complex matrix m (row-major, interleaved re/im
// pairs) into pk column by column: pk[8c:8c+4] holds column c's real parts
// and pk[8c+4:8c+8] its imaginary parts, rows ascending, so one YMM load
// gives a column across the four output rows.
func packU4(pk, m *[32]float64) {
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			pk[8*c+r] = m[8*r+2*c]
			pk[8*c+4+r] = m[8*r+2*c+1]
		}
	}
}

// applyU4Range applies an arbitrary 4×4 unitary on the qubit pair w
// addresses to samples [lo, hi). u is row-major as interleaved re/im pairs
// with w's first qubit as bit 0 of the local basis index — the kernel
// behind fused pair blocks.
//
//torq:hotpath
func (s *State) applyU4Range(lo, hi int, w *groupWalk, u *[32]float64) {
	checkU4(s.Re, s.Im, lo, hi, s.NQ, s.Dim, w)
	if useSIMD {
		var pk [32]float64
		packU4(&pk, u)
		applyU4AVX2(s.Re[lo*s.Dim:hi*s.Dim], s.Im[lo*s.Dim:hi*s.Dim], &pk, w.ma, w.mb, &w.walk.step)
		return
	}
	s.applyU4RangeGo(lo, hi, w, u)
}

func (s *State) applyU4RangeGo(lo, hi int, w *groupWalk, u *[32]float64) {
	re, im := s.Re[lo*s.Dim:hi*s.Dim], s.Im[lo*s.Dim:hi*s.Dim]
	ma, mb := w.ma, w.mb
	for g, i0 := 0, 0; g < len(re)/4; g++ {
		i1, i2, i3 := i0^ma, i0^mb, i0^ma^mb
		x0r, x0i := re[i0], im[i0]
		x1r, x1i := re[i1], im[i1]
		x2r, x2i := re[i2], im[i2]
		x3r, x3i := re[i3], im[i3]
		re[i0] = u[0]*x0r - u[1]*x0i + u[2]*x1r - u[3]*x1i + u[4]*x2r - u[5]*x2i + u[6]*x3r - u[7]*x3i
		im[i0] = u[0]*x0i + u[1]*x0r + u[2]*x1i + u[3]*x1r + u[4]*x2i + u[5]*x2r + u[6]*x3i + u[7]*x3r
		re[i1] = u[8]*x0r - u[9]*x0i + u[10]*x1r - u[11]*x1i + u[12]*x2r - u[13]*x2i + u[14]*x3r - u[15]*x3i
		im[i1] = u[8]*x0i + u[9]*x0r + u[10]*x1i + u[11]*x1r + u[12]*x2i + u[13]*x2r + u[14]*x3i + u[15]*x3r
		re[i2] = u[16]*x0r - u[17]*x0i + u[18]*x1r - u[19]*x1i + u[20]*x2r - u[21]*x2i + u[22]*x3r - u[23]*x3i
		im[i2] = u[16]*x0i + u[17]*x0r + u[18]*x1i + u[19]*x1r + u[20]*x2i + u[21]*x2r + u[22]*x3i + u[23]*x3r
		re[i3] = u[24]*x0r - u[25]*x0i + u[26]*x1r - u[27]*x1i + u[28]*x2r - u[29]*x2i + u[30]*x3r - u[31]*x3i
		im[i3] = u[24]*x0i + u[25]*x0r + u[26]*x1i + u[27]*x1r + u[28]*x2i + u[29]*x2r + u[30]*x3i + u[31]*x3r
		i0 ^= w.walk.step[bits.TrailingZeros(uint(g+1))&63]
	}
}

// revU4PairRange is one channel pair's share of the opU4 adjoint over
// samples [lo, hi): it recovers ψ_pre = U†ψ and λ_pre = U†λ in place and
// adds the outer product ψ_pre_c·conj(λ_post_r) of every group to
// K[r,c] (interleaved re/im, row-major). ud is U†.
//
//torq:hotpath
func revU4PairRange(psi, lam *State, lo, hi int, w *groupWalk, ud, K *[32]float64) {
	checkU4(psi.Re, psi.Im, lo, hi, psi.NQ, psi.Dim, w)
	checkU4(lam.Re, lam.Im, lo, hi, psi.NQ, lam.Dim, w) // and lam.Dim = psi.Dim
	a, b := lo*psi.Dim, hi*psi.Dim
	if useSIMD {
		var pk [32]float64
		packU4(&pk, ud)
		revU4AVX2(psi.Re[a:b], psi.Im[a:b], lam.Re[a:b], lam.Im[a:b], &pk, K, w.ma, w.mb, &w.walk.step)
		return
	}
	revU4PairRangeGo(psi.Re[a:b], psi.Im[a:b], lam.Re[a:b], lam.Im[a:b], w, ud, K)
}

func revU4PairRangeGo(pr, pim, lr, lim []float64, w *groupWalk, ud, K *[32]float64) {
	ma, mb := w.ma, w.mb
	for g, i0 := 0, 0; g < len(pr)/4; g++ {
		i1, i2, i3 := i0^ma, i0^mb, i0^ma^mb
		x0r, x0i := pr[i0], pim[i0]
		x1r, x1i := pr[i1], pim[i1]
		x2r, x2i := pr[i2], pim[i2]
		x3r, x3i := pr[i3], pim[i3]
		l0r, l0i := lr[i0], lim[i0]
		l1r, l1i := lr[i1], lim[i1]
		l2r, l2i := lr[i2], lim[i2]
		l3r, l3i := lr[i3], lim[i3]
		// ψ_pre = U†·ψ_post
		p0r := ud[0]*x0r - ud[1]*x0i + ud[2]*x1r - ud[3]*x1i + ud[4]*x2r - ud[5]*x2i + ud[6]*x3r - ud[7]*x3i
		p0i := ud[0]*x0i + ud[1]*x0r + ud[2]*x1i + ud[3]*x1r + ud[4]*x2i + ud[5]*x2r + ud[6]*x3i + ud[7]*x3r
		p1r := ud[8]*x0r - ud[9]*x0i + ud[10]*x1r - ud[11]*x1i + ud[12]*x2r - ud[13]*x2i + ud[14]*x3r - ud[15]*x3i
		p1i := ud[8]*x0i + ud[9]*x0r + ud[10]*x1i + ud[11]*x1r + ud[12]*x2i + ud[13]*x2r + ud[14]*x3i + ud[15]*x3r
		p2r := ud[16]*x0r - ud[17]*x0i + ud[18]*x1r - ud[19]*x1i + ud[20]*x2r - ud[21]*x2i + ud[22]*x3r - ud[23]*x3i
		p2i := ud[16]*x0i + ud[17]*x0r + ud[18]*x1i + ud[19]*x1r + ud[20]*x2i + ud[21]*x2r + ud[22]*x3i + ud[23]*x3r
		p3r := ud[24]*x0r - ud[25]*x0i + ud[26]*x1r - ud[27]*x1i + ud[28]*x2r - ud[29]*x2i + ud[30]*x3r - ud[31]*x3i
		p3i := ud[24]*x0i + ud[25]*x0r + ud[26]*x1i + ud[27]*x1r + ud[28]*x2i + ud[29]*x2r + ud[30]*x3i + ud[31]*x3r
		// K[r,c] += ψ_pre_c·conj(λ_post_r)
		K[0] += p0r*l0r + p0i*l0i
		K[1] += p0i*l0r - p0r*l0i
		K[2] += p1r*l0r + p1i*l0i
		K[3] += p1i*l0r - p1r*l0i
		K[4] += p2r*l0r + p2i*l0i
		K[5] += p2i*l0r - p2r*l0i
		K[6] += p3r*l0r + p3i*l0i
		K[7] += p3i*l0r - p3r*l0i
		K[8] += p0r*l1r + p0i*l1i
		K[9] += p0i*l1r - p0r*l1i
		K[10] += p1r*l1r + p1i*l1i
		K[11] += p1i*l1r - p1r*l1i
		K[12] += p2r*l1r + p2i*l1i
		K[13] += p2i*l1r - p2r*l1i
		K[14] += p3r*l1r + p3i*l1i
		K[15] += p3i*l1r - p3r*l1i
		K[16] += p0r*l2r + p0i*l2i
		K[17] += p0i*l2r - p0r*l2i
		K[18] += p1r*l2r + p1i*l2i
		K[19] += p1i*l2r - p1r*l2i
		K[20] += p2r*l2r + p2i*l2i
		K[21] += p2i*l2r - p2r*l2i
		K[22] += p3r*l2r + p3i*l2i
		K[23] += p3i*l2r - p3r*l2i
		K[24] += p0r*l3r + p0i*l3i
		K[25] += p0i*l3r - p0r*l3i
		K[26] += p1r*l3r + p1i*l3i
		K[27] += p1i*l3r - p1r*l3i
		K[28] += p2r*l3r + p2i*l3i
		K[29] += p2i*l3r - p2r*l3i
		K[30] += p3r*l3r + p3i*l3i
		K[31] += p3i*l3r - p3r*l3i
		// λ_pre = U†·λ_post
		lr[i0] = ud[0]*l0r - ud[1]*l0i + ud[2]*l1r - ud[3]*l1i + ud[4]*l2r - ud[5]*l2i + ud[6]*l3r - ud[7]*l3i
		lim[i0] = ud[0]*l0i + ud[1]*l0r + ud[2]*l1i + ud[3]*l1r + ud[4]*l2i + ud[5]*l2r + ud[6]*l3i + ud[7]*l3r
		lr[i1] = ud[8]*l0r - ud[9]*l0i + ud[10]*l1r - ud[11]*l1i + ud[12]*l2r - ud[13]*l2i + ud[14]*l3r - ud[15]*l3i
		lim[i1] = ud[8]*l0i + ud[9]*l0r + ud[10]*l1i + ud[11]*l1r + ud[12]*l2i + ud[13]*l2r + ud[14]*l3i + ud[15]*l3r
		lr[i2] = ud[16]*l0r - ud[17]*l0i + ud[18]*l1r - ud[19]*l1i + ud[20]*l2r - ud[21]*l2i + ud[22]*l3r - ud[23]*l3i
		lim[i2] = ud[16]*l0i + ud[17]*l0r + ud[18]*l1i + ud[19]*l1r + ud[20]*l2i + ud[21]*l2r + ud[22]*l3i + ud[23]*l3r
		lr[i3] = ud[24]*l0r - ud[25]*l0i + ud[26]*l1r - ud[27]*l1i + ud[28]*l2r - ud[29]*l2i + ud[30]*l3r - ud[31]*l3i
		lim[i3] = ud[24]*l0i + ud[25]*l0r + ud[26]*l1i + ud[27]*l1r + ud[28]*l2i + ud[29]*l2r + ud[30]*l3i + ud[31]*l3r
		pr[i0], pim[i0] = p0r, p0i
		pr[i1], pim[i1] = p1r, p1i
		pr[i2], pim[i2] = p2r, p2i
		pr[i3], pim[i3] = p3r, p3i
		i0 ^= w.walk.step[bits.TrailingZeros(uint(g+1))&63]
	}
}
