package qsim

// The first embedding block of every program acts on |0…0⟩, so its output
// is a product state: v = ⊗_q u_q with u_q = (cos φ_q/2, −i·sin φ_q/2) on
// qubit q, and each tangent is t_k = Σ_q φ̇_kq·∂_q v. opEmbedProd builds
// both by the Kronecker recurrence over qubits, low bit first,
//
//	P_0 = [1],  P_{j+1} = P_j ⊗ u_j,
//	T_0 = [0],  T_{j+1} = T_j ⊗ u_j + φ̇_j·(P_j ⊗ u′_j),
//
// with v = P_nq and t_k = T_nq, where u′ = (−sin φ/2 / 2, −i·cos φ/2 / 2)
// is du/dφ. Level j doubles a 2^j-amplitude prefix, so a sample costs
// O(2^nq) per channel instead of the nq full-vector RX sweeps (plus the
// derivative scratch copies) opEmbedAll makes.
//
// Its adjoint is reverse mode through the same recurrence. With the loss
// written as F = Re⟨λv, v⟩ + Σ_k Re⟨λt_k, t_k⟩, the adjoints of P_j and
// T_j are the seeds contracted against the factors above qubit j:
//
//	N_j = N_{j+1} ·u_j,          N_nq = λt_k,
//	M_j = M_{j+1} ·u_j + Σ_k φ̇_kj·N_{j+1} ·u′_j,   M_nq = λv,
//
// where "·u_j" contracts qubit j's bit against the factor. With the 2-vectors
// G[b] = Σ_i conj(X_{j+1}[i + b·2^j])·Y_j[i] of an adjoint X against a
// prefix Y, the gradients at qubit j are
//
//	dφ_j  = Re Σ_b (G_{M,P}[b] + Σ_k G_{N,T}[b])·u′_j[b] + Σ_k φ̇_kj·G_{N,P}[b]·u″_j[b],
//	dφ̇_kj = Re Σ_b G_{N,P}[b]·u′_j[b],
//
// with u″ = −u/4. Because u[0], u′[0], u″[0] are real and u[1], u′[1], u″[1]
// imaginary, only Re G[0] and Im G[1] are ever needed. The adjoint reads
// only λv, λt_k and the angles: it rebuilds the prefixes P_j and T_j in the
// value and tangent planes (no longer needed once the reverse walk reaches
// the first instruction), never recovers the pre-embedding states, and
// contracts λ in place instead of propagating it.
//
// Each level is one call of a step kernel over 2^j amplitudes. The kernels
// have AVX2 assembly on amd64 (embed_amd64.s) for levels of four or more
// amplitudes, chosen by useSIMD like the opU4 kernels; the pure-Go loops
// below are the oracle and the fallback. A kernel's sums over a level
// accumulate in four lanes, amplitude i in lane i mod 4, and the lanes
// combine as (l0 + l1) + (l2 + l3); the assembly runs one lane per YMM slot
// in the same order and with no fused multiply-add, so both paths agree bit
// for bit.

// embedProdRange is the forward of opEmbedProd over samples [lo, hi). It
// writes every amplitude of the value state and of each active tangent, so
// the block needs no prior reset.
//
//torq:hotpath
func embedProdRange(ws *Workspace, lo, hi int) {
	nq, dim := ws.nq, ws.val.Dim
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		row := smp * nq
		vr, vi := ws.val.Re[off:off+dim], ws.val.Im[off:off+dim]
		vr[0], vi[0] = 1, 0
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				ws.tan[k].Re[off], ws.tan[k].Im[off] = 0, 0
			}
		}
		for j, h := 0, 1; j < nq; j, h = j+1, h<<1 {
			c, s := cosSin(ws.angles[row+j] / 2)
			yr, yi := vr[:h], vi[:h]
			// Tangents first: they read the value prefix P_j before the
			// value step below overwrites it.
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				d := ws.angleTans[k][row+j]
				kt := [5]float64{c, s, d * c / 2, d * s / 2, -s}
				tr, ti := ws.tan[k].Re[off:off+dim], ws.tan[k].Im[off:off+dim]
				embedTanStep(tr[:h], ti[:h], yr, yi, tr[:h], ti[:h], tr[h:][:h], ti[h:][:h], &kt)
			}
			kv := [3]float64{c, s, -s}
			embedValStep(yr, yi, yr, yi, vr[h:][:h], vi[h:][:h], &kv)
		}
	}
}

// reverseEmbedProdRange is the adjoint of opEmbedProd over samples [lo, hi):
// it adds dφ into dAngles and dφ̇_k into dAngleTans[k] (where non-nil), and
// leaves the value, tangent, adjoint and scr1 planes of those samples
// overwritten. It must be the last step of the reverse walk.
//
//torq:hotpath
func reverseEmbedProdRange(ws *Workspace, lo, hi int, dAngles []float64, dAngleTans [][]float64) {
	nq, dim := ws.nq, ws.val.Dim
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		row := smp * nq
		// Per-qubit half-angle trigonometry, cached in the sample's scr1
		// plane (nq ≤ 2^nq floats) for the rebuild and the reverse sweep.
		cs, sn := ws.scr1.Re[off:off+nq], ws.scr1.Im[off:off+nq]
		for j := 0; j < nq; j++ {
			cs[j], sn[j] = cosSin(ws.angles[row+j] / 2)
		}

		// Rebuild the prefixes: P_j and T_j occupy [2^j, 2^{j+1}) of the
		// value and tangent planes, for j = 0 … nq−1.
		pr, pim := ws.val.Re[off:off+dim], ws.val.Im[off:off+dim]
		pr[1], pim[1] = 1, 0
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				ws.tan[k].Re[off+1], ws.tan[k].Im[off+1] = 0, 0
			}
		}
		for j, h := 0, 1; j < nq-1; j, h = j+1, h<<1 {
			c, s := cs[j], sn[j]
			yr, yi := pr[h:][:h], pim[h:][:h]
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				d := ws.angleTans[k][row+j]
				kt := [5]float64{c, s, d * c / 2, d * s / 2, -s}
				tr, ti := ws.tan[k].Re[off:off+dim], ws.tan[k].Im[off:off+dim]
				embedTanStep(tr[h:][:h], ti[h:][:h], yr, yi, tr[2*h:][:h], ti[2*h:][:h], tr[3*h:][:h], ti[3*h:][:h], &kt)
			}
			kv := [3]float64{c, s, -s}
			embedValStep(yr, yi, pr[2*h:][:h], pim[2*h:][:h], pr[3*h:][:h], pim[3*h:][:h], &kv)
		}

		// Reverse sweep, top qubit first: λv holds M and λt_k holds N_k,
		// each contracted in place into its lower half at every level.
		mr, mi := ws.lamV.Re[off:off+dim], ws.lamV.Im[off:off+dim]
		for j, h := nq-1, dim>>1; j >= 0; j, h = j-1, h>>1 {
			c, s := cs[j], sn[j]
			yr, yi := pr[h:][:h], pim[h:][:h] // P_j
			m0r, m0i := mr[:h], mi[:h]
			kv := [2]float64{c, s}
			var gp [8]float64 // lanes of Re G_{M,P}[0], Im G_{M,P}[1]
			embedRevValStep(m0r, m0i, mr[h:][:h], mi[h:][:h], yr, yi, &kv, &gp)
			dphi := -s/2*lanes4(gp[0:4]) + c/2*lanes4(gp[4:8])
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				d := ws.angleTans[k][row+j]
				nr, ni := ws.lamT[k].Re[off:off+dim], ws.lamT[k].Im[off:off+dim]
				tr, ti := ws.tan[k].Re[off+h:off+2*h], ws.tan[k].Im[off+h:off+2*h] // T_j
				kt := [4]float64{c, s, d * c / 2, -(d * s / 2)}
				var g [16]float64 // lanes of G_{N,T} and G_{N,P}
				embedRevTanStep(nr[:h], ni[:h], nr[h:][:h], ni[h:][:h], tr, ti, yr, yi, m0r, m0i, &kt, &g)
				gt0, gt1 := lanes4(g[0:4]), lanes4(g[4:8])
				gn0, gn1 := lanes4(g[8:12]), lanes4(g[12:16])
				dphi += -s/2*gt0 + c/2*gt1
				dphi += d * (-c/4*gn0 - s/4*gn1)
				if dAngleTans != nil && k < len(dAngleTans) && dAngleTans[k] != nil {
					dAngleTans[k][row+j] += -s/2*gn0 + c/2*gn1
				}
			}
			dAngles[row+j] += dphi
		}
	}
}

// lanes4 combines four lane partial sums in the kernels' fixed order.
func lanes4(l []float64) float64 { return (l[0] + l[1]) + (l[2] + l[3]) }

// embedValStep is one value level of the recurrence: with k = (c, s, −s)
// it writes p0 = c·y and p1 = −i·s·y. p0 may be y itself; every slice must
// have len(yr) elements.
//
//torq:hotpath
func embedValStep(yr, yi, p0r, p0i, p1r, p1i []float64, k *[3]float64) {
	n := len(yr)
	if len(yi) != n || len(p0r) != n || len(p0i) != n || len(p1r) != n || len(p1i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedValAVX2(yr, yi, p0r, p0i, p1r, p1i, k)
		return
	}
	c, s, ns := k[0], k[1], k[2]
	for i := range yr {
		y0, y1 := yr[i], yi[i]
		p0r[i], p0i[i] = c*y0, c*y1
		p1r[i], p1i[i] = s*y1, ns*y0
	}
}

// embedTanStep is one tangent level: with k = (c, s, dc, ds, −s), where
// dc, ds are φ̇·c/2 and φ̇·s/2, it writes t0 = c·x − ds·y and
// t1 = −i·(s·x + dc·y) from the tangent prefix x and value prefix y. t0 may
// be x itself; every slice must have len(yr) elements.
//
//torq:hotpath
func embedTanStep(xr, xi, yr, yi, t0r, t0i, t1r, t1i []float64, k *[5]float64) {
	n := len(yr)
	if len(xr) != n || len(xi) != n || len(yi) != n || len(t0r) != n || len(t0i) != n || len(t1r) != n || len(t1i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedTanAVX2(xr, xi, yr, yi, t0r, t0i, t1r, t1i, k)
		return
	}
	c, s, dc, ds, ns := k[0], k[1], k[2], k[3], k[4]
	for i := range yr {
		x0, x1, y0, y1 := xr[i], xi[i], yr[i], yi[i]
		t0r[i] = c*x0 - ds*y0
		t0i[i] = c*x1 - ds*y1
		t1r[i] = s*x1 + dc*y1
		t1i[i] = ns*x0 - dc*y0
	}
}

// embedRevValStep is one level of the value adjoint M: with k = (c, s) it
// adds the lanes of Re Σ conj(M_0)·y to g[0:4] and of Im Σ conj(M_1)·y to
// g[4:8], then contracts M_0 ← c·M_0 + i·s·M_1 in place. Every slice must
// have len(yr) elements.
//
//torq:hotpath
func embedRevValStep(m0r, m0i, m1r, m1i, yr, yi []float64, k *[2]float64, g *[8]float64) {
	n := len(yr)
	if len(m0r) != n || len(m0i) != n || len(m1r) != n || len(m1i) != n || len(yi) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedRevValAVX2(m0r, m0i, m1r, m1i, yr, yi, k, g)
		return
	}
	c, s := k[0], k[1]
	for i := range yr {
		l := i & 3
		a0r, a0i, a1r, a1i := m0r[i], m0i[i], m1r[i], m1i[i]
		g[l] += a0r*yr[i] + a0i*yi[i]
		g[4+l] += a1r*yi[i] - a1i*yr[i]
		m0r[i] = c*a0r - s*a1i
		m0i[i] = c*a0i + s*a1r
	}
}

// embedRevTanStep is one level of a tangent adjoint N: with
// k = (c, s, dc, −ds) it adds the lanes of Re Σ conj(N_0)·x, Im Σ
// conj(N_1)·x, Re Σ conj(N_0)·y and Im Σ conj(N_1)·y to g[0:4], g[4:8],
// g[8:12] and g[12:16] for the tangent prefix x and value prefix y, adds
// φ̇·(N·u′) to the value adjoint M_0, and contracts N_0 ← c·N_0 + i·s·N_1 in
// place. Every slice must have len(yr) elements.
//
//torq:hotpath
func embedRevTanStep(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i []float64, k *[4]float64, g *[16]float64) {
	n := len(yr)
	if len(n0r) != n || len(n0i) != n || len(n1r) != n || len(n1i) != n || len(xr) != n || len(xi) != n ||
		len(yi) != n || len(m0r) != n || len(m0i) != n {
		panic("qsim: embedding step: slice lengths differ")
	}
	if useSIMD && n >= 4 {
		embedRevTanAVX2(n0r, n0i, n1r, n1i, xr, xi, yr, yi, m0r, m0i, k, g)
		return
	}
	c, s, dc, nds := k[0], k[1], k[2], k[3]
	for i := range yr {
		l := i & 3
		a0r, a0i, a1r, a1i := n0r[i], n0i[i], n1r[i], n1i[i]
		g[l] += a0r*xr[i] + a0i*xi[i]
		g[4+l] += a1r*xi[i] - a1i*xr[i]
		g[8+l] += a0r*yr[i] + a0i*yi[i]
		g[12+l] += a1r*yi[i] - a1i*yr[i]
		m0r[i] += nds*a0r - dc*a1i
		m0i[i] += nds*a0i + dc*a1r
		n0r[i] = c*a0r - s*a1i
		n0i[i] = c*a0i + s*a1r
	}
}
