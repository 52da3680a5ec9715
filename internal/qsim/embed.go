package qsim

// The first embedding block of every program acts on |0…0⟩, and the
// single-qubit gates the compiler folds into it (every one in front of the
// first two-qubit gate, see foldLeading) act on single qubits of the
// result, so its output is a product state: v = ⊗_q u_q with
//
//	u_q = W_q·e(φ_q),  e(φ) = (cos φ/2, −i·sin φ/2),
//
// where W_q is the 2×2 product of the gates folded on qubit q (the identity
// on a qubit with none), and each tangent is t_k = Σ_q φ̇_kq·∂_q v.
// opEmbedProd builds both by the Kronecker recurrence over qubits, low bit
// first,
//
//	P_0 = [1],  P_{j+1} = P_j ⊗ u_j,
//	T_0 = [0],  T_{j+1} = T_j ⊗ u_j + φ̇_j·(P_j ⊗ u′_j),
//
// with v = P_nq and t_k = T_nq, where u′ = W·e′ is du/dφ, e′ =
// (−sin φ/2 / 2, −i·cos φ/2 / 2). Level j doubles a 2^j-amplitude prefix,
// so a sample costs O(2^nq) per channel instead of the nq full-vector RX
// sweeps opEmbedAll makes, and the folded gates cost nothing per amplitude.
//
// Its adjoint is reverse mode through the same recurrence. With the loss
// written as F = Re⟨λv, v⟩ + Σ_k Re⟨λt_k, t_k⟩, the adjoints of P_j and
// T_j are the seeds contracted against the factors above qubit j:
//
//	N_j = N_{j+1} ·u_j,          N_nq = λt_k,
//	M_j = M_{j+1} ·u_j + Σ_k φ̇_kj·N_{j+1} ·u′_j,   M_nq = λv,
//
// where X·u contracts qubit j's bit against the factor: (X·u)[i] =
// Σ_b conj(u[b])·X[i + b·2^j]. With the complex 2-vectors
// G[b] = Σ_i conj(X_{j+1}[i + b·2^j])·Y_j[i] of an adjoint X against a
// prefix Y, write
//
//	A[b] = G_{M,P}[b] + Σ_k G_{N_k,T_k}[b],   B[b] = Σ_k φ̇_kj·G_{N_k,P}[b].
//
// Then the gradients at qubit j are
//
//	dφ_j  = Re Σ_b A[b]·u′_j[b] + B[b]·u″_j[b],   u″ = −u/4,
//	dφ̇_kj = Re Σ_b G_{N_k,P}[b]·u′_j[b],
//
// and, since u = W·e and u′ = W·e′ with e and e′ free of θ, a folded gate
// parameter θ on qubit q has dθ = Re Σ_{b,c} (dW_q/dθ)[b,c]·K_q[b,c] with
//
//	K_q[b,c] = Σ_samples A[b]·e[c] + B[b]·e′[c].
//
// W_q is a general complex matrix, so u, u′ and every G component (real and
// imaginary parts of G[0] and G[1], for both G_{N,T} and G_{N,P}) are
// needed. The adjoint accumulates K_q over its samples and contracts it
// against the instruction's derivative slots (laid out like an opU2's) into
// the shard's dθ once per call, as revU2Range does, so the folded gates'
// gradients merge in shard order like every other instruction's. It reads
// only λv, λt_k, the angles and W: it rebuilds the prefixes P_j and T_j in
// the value and tangent planes (no longer needed once the reverse walk
// reaches the first instruction), never recovers the pre-embedding states,
// and contracts λ in place instead of propagating it.
//
// Level 0 starts from P_0 = [1] and T_0 = [0], so the forward writes
// P_1 = u_0 and T_1 = φ̇_0·u′_0 outright, and the adjoint reads level 0's
// G[b] straight off the adjoints (G_{X,P}[b] = conj X_1[b], G_{N,T} = 0)
// with nothing left to contract. Every other level is one call of a step
// kernel over 2^j amplitudes. The kernels
// have AVX2 assembly on amd64 (embed_amd64.s) for levels of four or more
// amplitudes, chosen by useSIMD like the opU4 kernels; the pure-Go loops
// below are the oracle and the fallback. A kernel's sums over a level
// accumulate in four lanes, amplitude i in lane i mod 4, and the lanes
// combine as (l0 + l1) + (l2 + l3); the assembly runs one lane per YMM slot
// in the same order and with no fused multiply-add, so both paths agree bit
// for bit.

// identWall is the per-qubit identity W of an opEmbedProd that folded no
// gate (and so has no coefficient slot), for up to 64 qubits.
var identWall = func() []float64 {
	w := make([]float64, 8*64)
	for q := 0; q < 64; q++ {
		w[8*q], w[8*q+6] = 1, 1
	}
	return w
}()

// embedWall returns the factors W_q of the opEmbedProd in, eight floats per
// qubit (a mat2 each), from the forward coefficients.
func embedWall(in *instr, coeff []float64, nq int) []float64 {
	if len(in.gates) == 0 {
		return identWall[:8*nq]
	}
	return coeff[in.slot : in.slot+8*nq]
}

// embedFactor returns u = W·e and u′ = W·e′ for a qubit's factor W (a mat2)
// and half-angle cosine c and sine s, each as (Re u[0], Im u[0], Re u[1],
// Im u[1]). The forward and the adjoint both take their factors from here,
// so the adjoint's rebuilt prefixes are the forward's bit for bit.
func embedFactor(w []float64, c, s float64) (u, du [4]float64) {
	w = w[:8]
	hc, hs := c/2, s/2
	u = [4]float64{w[0]*c + w[3]*s, w[1]*c - w[2]*s, w[4]*c + w[7]*s, w[5]*c - w[6]*s}
	du = [4]float64{w[3]*hc - w[0]*hs, -(w[1] * hs) - w[2]*hc, w[7]*hc - w[4]*hs, -(w[5] * hs) - w[6]*hc}
	return u, du
}

// embedQubit is one qubit's share of a sample in the opEmbedProd adjoint:
// its half-angle cosine and sine and its factors u and u′ (embedFactor).
type embedQubit struct {
	c, s  float64
	u, du [4]float64
}

// maxEmbedQubits bounds the adjoint's per-qubit tables, which live on the
// stack: far past any register a workspace can hold (2^32 amplitudes per
// sample and channel).
const maxEmbedQubits = 32

// embedProdRange is the forward of opEmbedProd over samples [lo, hi), with
// w the factors W_q (embedWall). It writes every amplitude of the value
// state and of each active tangent, so the block needs no prior reset.
//
//torq:hotpath
func embedProdRange(ws *Workspace, w []float64, lo, hi int) {
	nq, dim := ws.nq, ws.val.Dim
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		row := smp * nq
		vr, vi := ws.val.Re[off:off+dim], ws.val.Im[off:off+dim]
		// Level 0 from P_0 = [1] and T_0 = [0]: P_1 = u_0, T_1 = φ̇_0·u′_0.
		c, s := cosSin(ws.angles[row] / 2)
		u, du := embedFactor(w, c, s)
		vr[0], vi[0], vr[1], vi[1] = u[0], u[1], u[2], u[3]
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				d := ws.angleTans[k][row]
				tr, ti := ws.tan[k].Re[off:off+2], ws.tan[k].Im[off:off+2]
				tr[0], ti[0], tr[1], ti[1] = d*du[0], d*du[1], d*du[2], d*du[3]
			}
		}
		for j, h := 1, 2; j < nq; j, h = j+1, h<<1 {
			c, s := cosSin(ws.angles[row+j] / 2)
			u, du := embedFactor(w[8*j:], c, s)
			yr, yi := vr[:h], vi[:h]
			// Tangents first: they read the value prefix P_j before the
			// value step below overwrites it.
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				tr, ti := ws.tan[k].Re[off:off+dim], ws.tan[k].Im[off:off+dim]
				embedTanStep(tr[:h], ti[:h], yr, yi, tr[:h], ti[:h], tr[h:][:h], ti[h:][:h], &u, &du, ws.angleTans[k][row+j])
			}
			embedValStep(yr, yi, yr, yi, vr[h:][:h], vi[h:][:h], &u)
		}
	}
}

// reverseEmbedProdRange is the adjoint of opEmbedProd in over samples
// [lo, hi): it adds dφ into dAngles, dφ̇_k into dAngleTans[k] (where
// non-nil) and the folded gates' gradients into sc.dth, and leaves the
// value, tangent and adjoint planes of those samples overwritten. It must
// be the last step of the reverse walk.
//
//torq:hotpath
func reverseEmbedProdRange(ws *Workspace, in *instr, coeff, dcoef []float64, lo, hi int, dAngles []float64, dAngleTans [MaxTangents][]float64, sc bwdScratch) {
	nq, dim := ws.nq, ws.val.Dim
	if nq > maxEmbedQubits {
		panic("qsim: opEmbedProd adjoint: more than 32 qubits")
	}
	w := embedWall(in, coeff, nq)
	// The sample's per-qubit trigonometry and factors, for the rebuild and
	// the reverse sweep, and K_q of every qubit (a mat2 each) when any
	// folded gate has a parameter.
	var fac [maxEmbedQubits]embedQubit
	var kbuf [8 * maxEmbedQubits]float64
	var K []float64
	if len(in.params) > 0 {
		K = kbuf[:8*nq]
	}
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		row := smp * nq
		for j := 0; j < nq; j++ {
			q := &fac[j]
			q.c, q.s = cosSin(ws.angles[row+j] / 2)
			q.u, q.du = embedFactor(w[8*j:], q.c, q.s)
		}

		// Rebuild the prefixes: P_j and T_j occupy [2^j, 2^{j+1}) of the
		// value and tangent planes, for j = 1 … nq−1 (the sweep reads P_0 =
		// [1] and T_0 = [0] as constants): P_1 = u_0, T_1 = φ̇_0·u′_0.
		pr, pim := ws.val.Re[off:off+dim], ws.val.Im[off:off+dim]
		if nq > 1 {
			u, du := &fac[0].u, &fac[0].du
			pr[2], pim[2], pr[3], pim[3] = u[0], u[1], u[2], u[3]
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					d := ws.angleTans[k][row]
					tr, ti := ws.tan[k].Re[off+2:off+4], ws.tan[k].Im[off+2:off+4]
					tr[0], ti[0], tr[1], ti[1] = d*du[0], d*du[1], d*du[2], d*du[3]
				}
			}
		}
		for j, h := 1, 2; j < nq-1; j, h = j+1, h<<1 {
			q := &fac[j]
			yr, yi := pr[h:][:h], pim[h:][:h]
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				tr, ti := ws.tan[k].Re[off:off+dim], ws.tan[k].Im[off:off+dim]
				embedTanStep(tr[h:][:h], ti[h:][:h], yr, yi, tr[2*h:][:h], ti[2*h:][:h], tr[3*h:][:h], ti[3*h:][:h], &q.u, &q.du, ws.angleTans[k][row+j])
			}
			embedValStep(yr, yi, pr[2*h:][:h], pim[2*h:][:h], pr[3*h:][:h], pim[3*h:][:h], &q.u)
		}

		// Reverse sweep, top qubit first: λv holds M and λt_k holds N_k,
		// each contracted in place into its lower half at every level.
		mr, mi := ws.lamV.Re[off:off+dim], ws.lamV.Im[off:off+dim]
		for j, h := nq-1, dim>>1; j >= 0; j, h = j-1, h>>1 {
			q := &fac[j]
			yr, yi := pr[h:][:h], pim[h:][:h] // P_j
			m0r, m0i := mr[:h], mi[:h]
			// Lanes of A: G_{M,P}, then every G_{N_k,T_k} added lane by lane
			// (Re and Im of [0], then of [1]). At level 0, P_0 = [1] and
			// T_0 = [0], so G_{X,P}[b] = conj X_1[b], G_{N,T} = 0, and no
			// adjoint below it needs contracting.
			var ga [16]float64
			if j > 0 {
				embedRevValStep(m0r, m0i, mr[h:][:h], mi[h:][:h], yr, yi, &q.u, &ga)
			}
			var B [4]float64
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				d := ws.angleTans[k][row+j]
				nr, ni := ws.lamT[k].Re[off:off+dim], ws.lamT[k].Im[off:off+dim]
				var G [4]float64 // G_{N_k,P}
				if j > 0 {
					tr, ti := ws.tan[k].Re[off+h:off+2*h], ws.tan[k].Im[off+h:off+2*h] // T_j
					var gn [16]float64
					embedRevTanStep(nr[:h], ni[:h], nr[h:][:h], ni[h:][:h], tr, ti, yr, yi, m0r, m0i, &q.u, &q.du, d, &ga, &gn)
					G = [4]float64{lanes4(gn[0:4]), lanes4(gn[4:8]), lanes4(gn[8:12]), lanes4(gn[12:16])}
				} else {
					G = [4]float64{nr[0], -ni[0], nr[1], -ni[1]}
				}
				for i, g := range G {
					B[i] += d * g
				}
				if dAngleTans[k] != nil {
					dAngleTans[k][row+j] += reDot2(G, q.du)
				}
			}
			var A [4]float64
			if j > 0 {
				A = [4]float64{lanes4(ga[0:4]), lanes4(ga[4:8]), lanes4(ga[8:12]), lanes4(ga[12:16])}
			} else {
				A = [4]float64{mr[0], -mi[0], mr[1], -mi[1]}
			}
			dAngles[row+j] += reDot2(A, q.du) - reDot2(B, q.u)/4
			if K != nil {
				// K[b,c] += A[b]·e[c] + B[b]·e′[c], e = (c, −i·s) and
				// e′ = (−s/2, −i·c/2).
				kq := K[8*j : 8*j+8]
				c, s := q.c, q.s
				hc, hs := c/2, s/2
				for b := 0; b < 2; b++ {
					ar, ai, br, bi := A[2*b], A[2*b+1], B[2*b], B[2*b+1]
					kq[4*b] += ar*c - br*hs
					kq[4*b+1] += ai*c - bi*hs
					kq[4*b+2] += ai*s + bi*hc
					kq[4*b+3] -= ar*s + br*hc
				}
			}
		}
	}
	t := 0
	for _, g := range in.gates {
		if g.P < 0 {
			continue
		}
		d := dcoef[in.dslot+8*t : in.dslot+8*t+8]
		k := K[8*g.Q : 8*g.Q+8]
		sc.dth[g.P] += d[0]*k[0] - d[1]*k[1] + d[2]*k[2] - d[3]*k[3] +
			d[4]*k[4] - d[5]*k[5] + d[6]*k[6] - d[7]*k[7]
		t++
	}
}

// reDot2 returns Re Σ_b a[b]·v[b] for complex 2-vectors given as (Re [0],
// Im [0], Re [1], Im [1]).
func reDot2(a, v [4]float64) float64 {
	return a[0]*v[0] - a[1]*v[1] + (a[2]*v[2] - a[3]*v[3])
}

// lanes4 combines four lane partial sums in the kernels' fixed order.
func lanes4(l []float64) float64 { return (l[0] + l[1]) + (l[2] + l[3]) }

// embedValStep is one value level of the recurrence: with k = u it writes
// p0 = u[0]·y and p1 = u[1]·y. p0 may be y itself; every slice must have
// len(yr) elements.
//
//torq:hotpath
func embedValStep(yr, yi, p0r, p0i, p1r, p1i []float64, k *[4]float64) {
	n := len(yr)
	if len(yi) != n || len(p0r) != n || len(p0i) != n || len(p1r) != n || len(p1i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedValAVX2(yr, yi, p0r, p0i, p1r, p1i, k)
		return
	}
	u0r, u0i, u1r, u1i := k[0], k[1], k[2], k[3]
	for i := range yr {
		y0, y1 := yr[i], yi[i]
		p0r[i] = u0r*y0 - u0i*y1
		p0i[i] = u0r*y1 + u0i*y0
		p1r[i] = u1r*y0 - u1i*y1
		p1i[i] = u1r*y1 + u1i*y0
	}
}

// embedTanStep is one tangent level: with the factor u, its derivative du
// and the angle tangent d, so that δ = d·du, it writes
// t0 = u[0]·x + δ[0]·y and t1 = u[1]·x + δ[1]·y from the tangent prefix x
// and value prefix y. t0 may be x itself; every slice must have len(yr)
// elements.
//
//torq:hotpath
func embedTanStep(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, u, du *[4]float64, d float64) {
	n := len(yr)
	if len(xr) != n || len(xi) != n || len(yi) != n || len(t0r) != n || len(t0i) != n || len(t1r) != n || len(t1i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i, u, du, d)
		return
	}
	u0r, u0i, u1r, u1i := u[0], u[1], u[2], u[3]
	d0r, d0i, d1r, d1i := d*du[0], d*du[1], d*du[2], d*du[3]
	for i := range yr {
		x0, x1, y0, y1 := xr[i], xi[i], yr[i], yi[i]
		t0r[i] = u0r*x0 - u0i*x1 + (d0r*y0 - d0i*y1)
		t0i[i] = u0r*x1 + u0i*x0 + (d0r*y1 + d0i*y0)
		t1r[i] = u1r*x0 - u1i*x1 + (d1r*y0 - d1i*y1)
		t1i[i] = u1r*x1 + u1i*x0 + (d1r*y1 + d1i*y0)
	}
}

// embedRevValStep is one level of the value adjoint M: with k = u it adds
// the lanes of Re and Im of Σ conj(M_0)·y to g[0:4] and g[4:8] and of
// Σ conj(M_1)·y to g[8:12] and g[12:16], then contracts
// M_0 ← conj(u[0])·M_0 + conj(u[1])·M_1 in place. Every slice must have
// len(yr) elements.
//
//torq:hotpath
func embedRevValStep(m0r, m0i, m1r, m1i, yr, yi []float64, k *[4]float64, g *[16]float64) {
	n := len(yr)
	if len(m0r) != n || len(m0i) != n || len(m1r) != n || len(m1i) != n || len(yi) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi, k, g)
		return
	}
	u0r, u0i, u1r, u1i := k[0], k[1], k[2], k[3]
	for i := range yr {
		l := i & 3
		a0r, a0i, a1r, a1i := m0r[i], m0i[i], m1r[i], m1i[i]
		y0, y1 := yr[i], yi[i]
		g[l] += a0r*y0 + a0i*y1
		g[4+l] += a0r*y1 - a0i*y0
		g[8+l] += a1r*y0 + a1i*y1
		g[12+l] += a1r*y1 - a1i*y0
		m0r[i] = u0r*a0r + u0i*a0i + (u1r*a1r + u1i*a1i)
		m0i[i] = u0r*a0i - u0i*a0r + (u1r*a1i - u1i*a1r)
	}
}

// embedRevTanStep is one level of a tangent adjoint N: with the factor u,
// its derivative du and the angle tangent d, so that δ = d·du, it adds the
// lanes of Σ conj(N_0)·x and Σ conj(N_1)·x (Re, then Im, of each) to gt
// and of Σ conj(N_0)·y and Σ conj(N_1)·y to gn, for the tangent prefix x
// and value prefix y; adds conj(δ[0])·N_0 + conj(δ[1])·N_1 to the value
// adjoint M_0; and contracts N_0 ← conj(u[0])·N_0 + conj(u[1])·N_1 in
// place. Every slice must have len(yr) elements.
//
//torq:hotpath
func embedRevTanStep(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, u, du *[4]float64, d float64, gt, gn *[16]float64) {
	n := len(yr)
	if len(n0r) != n || len(n0i) != n || len(n1r) != n || len(n1i) != n || len(xr) != n || len(xi) != n ||
		len(yi) != n || len(m0r) != n || len(m0i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i, u, du, d, gt, gn)
		return
	}
	u0r, u0i, u1r, u1i := u[0], u[1], u[2], u[3]
	d0r, d0i, d1r, d1i := d*du[0], d*du[1], d*du[2], d*du[3]
	for i := range yr {
		l := i & 3
		a0r, a0i, a1r, a1i := n0r[i], n0i[i], n1r[i], n1i[i]
		x0, x1, y0, y1 := xr[i], xi[i], yr[i], yi[i]
		gt[l] += a0r*x0 + a0i*x1
		gt[4+l] += a0r*x1 - a0i*x0
		gt[8+l] += a1r*x0 + a1i*x1
		gt[12+l] += a1r*x1 - a1i*x0
		gn[l] += a0r*y0 + a0i*y1
		gn[4+l] += a0r*y1 - a0i*y0
		gn[8+l] += a1r*y0 + a1i*y1
		gn[12+l] += a1r*y1 - a1i*y0
		m0r[i] += d0r*a0r + d0i*a0i + (d1r*a1r + d1i*a1i)
		m0i[i] += d0r*a0i - d0i*a0r + (d1r*a1i - d1i*a1r)
		n0r[i] = u0r*a0r + u0i*a0i + (u1r*a1r + u1i*a1i)
		n0i[i] = u0r*a0i - u0i*a0r + (u1r*a1i - u1i*a1r)
	}
}
