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

// applyU4Range applies an arbitrary 4×4 unitary on the qubit pair w
// addresses to samples [lo, hi), with w's first qubit as bit 0 of the
// local basis index — the kernel behind fused pair blocks. pk is the
// matrix column-packed by Program.packCoeffs, once per pass.
//
//torq:hotpath
func (s *State) applyU4Range(lo, hi int, w *groupWalk, pk *[32]float64) {
	checkU4(s.Re, s.Im, lo, hi, s.NQ, s.Dim, w)
	if useSIMD {
		applyU4AVX2(s.Re[lo*s.Dim:hi*s.Dim], s.Im[lo*s.Dim:hi*s.Dim], pk, w.ma, w.mb, &w.walk.step)
		return
	}
	s.applyU4RangeGo(lo, hi, w, pk)
}

// The pure-Go kernels run the assembly's products and sums in its order,
// reading U[r,c] as pk[8c+r] + i·pk[8c+4+r].

func (s *State) applyU4RangeGo(lo, hi int, w *groupWalk, pk *[32]float64) {
	re, im := s.Re[lo*s.Dim:hi*s.Dim], s.Im[lo*s.Dim:hi*s.Dim]
	ma, mb := w.ma, w.mb
	for g, i0 := 0, 0; g < len(re)/4; g++ {
		i1, i2, i3 := i0^ma, i0^mb, i0^ma^mb
		x0r, x0i := re[i0], im[i0]
		x1r, x1i := re[i1], im[i1]
		x2r, x2i := re[i2], im[i2]
		x3r, x3i := re[i3], im[i3]
		re[i0] = pk[0]*x0r - pk[4]*x0i + pk[8]*x1r - pk[12]*x1i + pk[16]*x2r - pk[20]*x2i + pk[24]*x3r - pk[28]*x3i
		im[i0] = pk[0]*x0i + pk[4]*x0r + pk[8]*x1i + pk[12]*x1r + pk[16]*x2i + pk[20]*x2r + pk[24]*x3i + pk[28]*x3r
		re[i1] = pk[1]*x0r - pk[5]*x0i + pk[9]*x1r - pk[13]*x1i + pk[17]*x2r - pk[21]*x2i + pk[25]*x3r - pk[29]*x3i
		im[i1] = pk[1]*x0i + pk[5]*x0r + pk[9]*x1i + pk[13]*x1r + pk[17]*x2i + pk[21]*x2r + pk[25]*x3i + pk[29]*x3r
		re[i2] = pk[2]*x0r - pk[6]*x0i + pk[10]*x1r - pk[14]*x1i + pk[18]*x2r - pk[22]*x2i + pk[26]*x3r - pk[30]*x3i
		im[i2] = pk[2]*x0i + pk[6]*x0r + pk[10]*x1i + pk[14]*x1r + pk[18]*x2i + pk[22]*x2r + pk[26]*x3i + pk[30]*x3r
		re[i3] = pk[3]*x0r - pk[7]*x0i + pk[11]*x1r - pk[15]*x1i + pk[19]*x2r - pk[23]*x2i + pk[27]*x3r - pk[31]*x3i
		im[i3] = pk[3]*x0i + pk[7]*x0r + pk[11]*x1i + pk[15]*x1r + pk[19]*x2i + pk[23]*x2r + pk[27]*x3i + pk[31]*x3r
		i0 ^= w.walk.step[bits.TrailingZeros(uint(g+1))&63]
	}
}

// revU4PairRange is one channel pair's share of the opU4 adjoint over
// samples [lo, hi): it recovers ψ_pre = U†ψ and λ_pre = U†λ in place and
// adds the outer product ψ_pre_c·conj(λ_post_r) of every group to
// K[r,c] (interleaved re/im, row-major). pkd is U†, column-packed.
//
//torq:hotpath
func revU4PairRange(psi, lam *State, lo, hi int, w *groupWalk, pkd, K *[32]float64) {
	checkU4(psi.Re, psi.Im, lo, hi, psi.NQ, psi.Dim, w)
	checkU4(lam.Re, lam.Im, lo, hi, psi.NQ, lam.Dim, w) // and lam.Dim = psi.Dim
	a, b := lo*psi.Dim, hi*psi.Dim
	if useSIMD {
		revU4AVX2(psi.Re[a:b], psi.Im[a:b], lam.Re[a:b], lam.Im[a:b], pkd, K, w.ma, w.mb, &w.walk.step)
		return
	}
	revU4PairRangeGo(psi.Re[a:b], psi.Im[a:b], lam.Re[a:b], lam.Im[a:b], w, pkd, K)
}

func revU4PairRangeGo(pr, pim, lr, lim []float64, w *groupWalk, pkd, K *[32]float64) {
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
		// ψ_pre = U†·ψ_post; U†[r,c] is pkd[8c+r] + i·pkd[8c+4+r]
		p0r := pkd[0]*x0r - pkd[4]*x0i + pkd[8]*x1r - pkd[12]*x1i + pkd[16]*x2r - pkd[20]*x2i + pkd[24]*x3r - pkd[28]*x3i
		p0i := pkd[0]*x0i + pkd[4]*x0r + pkd[8]*x1i + pkd[12]*x1r + pkd[16]*x2i + pkd[20]*x2r + pkd[24]*x3i + pkd[28]*x3r
		p1r := pkd[1]*x0r - pkd[5]*x0i + pkd[9]*x1r - pkd[13]*x1i + pkd[17]*x2r - pkd[21]*x2i + pkd[25]*x3r - pkd[29]*x3i
		p1i := pkd[1]*x0i + pkd[5]*x0r + pkd[9]*x1i + pkd[13]*x1r + pkd[17]*x2i + pkd[21]*x2r + pkd[25]*x3i + pkd[29]*x3r
		p2r := pkd[2]*x0r - pkd[6]*x0i + pkd[10]*x1r - pkd[14]*x1i + pkd[18]*x2r - pkd[22]*x2i + pkd[26]*x3r - pkd[30]*x3i
		p2i := pkd[2]*x0i + pkd[6]*x0r + pkd[10]*x1i + pkd[14]*x1r + pkd[18]*x2i + pkd[22]*x2r + pkd[26]*x3i + pkd[30]*x3r
		p3r := pkd[3]*x0r - pkd[7]*x0i + pkd[11]*x1r - pkd[15]*x1i + pkd[19]*x2r - pkd[23]*x2i + pkd[27]*x3r - pkd[31]*x3i
		p3i := pkd[3]*x0i + pkd[7]*x0r + pkd[11]*x1i + pkd[15]*x1r + pkd[19]*x2i + pkd[23]*x2r + pkd[27]*x3i + pkd[31]*x3r
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
		lr[i0] = pkd[0]*l0r - pkd[4]*l0i + pkd[8]*l1r - pkd[12]*l1i + pkd[16]*l2r - pkd[20]*l2i + pkd[24]*l3r - pkd[28]*l3i
		lim[i0] = pkd[0]*l0i + pkd[4]*l0r + pkd[8]*l1i + pkd[12]*l1r + pkd[16]*l2i + pkd[20]*l2r + pkd[24]*l3i + pkd[28]*l3r
		lr[i1] = pkd[1]*l0r - pkd[5]*l0i + pkd[9]*l1r - pkd[13]*l1i + pkd[17]*l2r - pkd[21]*l2i + pkd[25]*l3r - pkd[29]*l3i
		lim[i1] = pkd[1]*l0i + pkd[5]*l0r + pkd[9]*l1i + pkd[13]*l1r + pkd[17]*l2i + pkd[21]*l2r + pkd[25]*l3i + pkd[29]*l3r
		lr[i2] = pkd[2]*l0r - pkd[6]*l0i + pkd[10]*l1r - pkd[14]*l1i + pkd[18]*l2r - pkd[22]*l2i + pkd[26]*l3r - pkd[30]*l3i
		lim[i2] = pkd[2]*l0i + pkd[6]*l0r + pkd[10]*l1i + pkd[14]*l1r + pkd[18]*l2i + pkd[22]*l2r + pkd[26]*l3i + pkd[30]*l3r
		lr[i3] = pkd[3]*l0r - pkd[7]*l0i + pkd[11]*l1r - pkd[15]*l1i + pkd[19]*l2r - pkd[23]*l2i + pkd[27]*l3r - pkd[31]*l3i
		lim[i3] = pkd[3]*l0i + pkd[7]*l0r + pkd[11]*l1i + pkd[15]*l1r + pkd[19]*l2i + pkd[23]*l2r + pkd[27]*l3i + pkd[31]*l3r
		pr[i0], pim[i0] = p0r, p0i
		pr[i1], pim[i1] = p1r, p1i
		pr[i2], pim[i2] = p2r, p2i
		pr[i3], pim[i3] = p3r, p3i
		i0 ^= w.walk.step[bits.TrailingZeros(uint(g+1))&63]
	}
}
