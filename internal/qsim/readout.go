package qsim

import "repro/internal/par"

// This file is the readout layer: the per-qubit ⟨Z⟩ and tangent readouts
// that end a forward pass, and the adjoint seed that starts a backward pass
// from their upstream gradients. Both keep the arithmetic of the plain
// formulas bit for bit — every per-qubit sum runs over the basis states in
// ascending order, every weight w[j] sees the same partial sums in the same
// order — while doing less work:
//
//   - The readouts keep eight per-qubit sums in registers for a whole pass
//     over a sample and take each term's sign from a bit of j without a
//     branch (signedSums).
//   - The seed builds each sample's basis weights by prefix doubling
//     (buildW) in a dim-float scratch right before it uses them, and writes
//     its first term instead of adding it to a cleared state.
//   - Both read the program's final state through its readout map, the
//     frame its CNOTs leave, so no CNOT ever runs (see frame.go).

// The readout map is the program's final frame as a basisWalk: amplitude j
// of the circuit's output state sits at index src(j) = L(j) of the state
// the executed instructions leave, where L undoes the circuit's CNOTs (see
// frame), so src(j+1) = src(j) ^ step[t] with t the trailing one bits of j.

// identityReadout reads every state as it stands: step[t] = 2^(t+1) − 1.
var identityReadout = newReadoutMap(nil)

// newReadoutMap builds the map through which the state a program leaves is
// read when the program's CNOTs (in application order) were not applied.
func newReadoutMap(cnots []Gate) basisWalk {
	// src(j) undoes the CNOTs last first; each is its own inverse.
	src := func(j int) int {
		for i := len(cnots) - 1; i >= 0; i-- {
			if g := cnots[i]; j>>g.C&1 != 0 {
				j ^= 1 << g.Q
			}
		}
		return j
	}
	cols := make([]int, 63)
	for t := range cols {
		cols[t] = src(1 << t)
	}
	return newBasisWalk(cols, len(cols))
}

// zChunk is how many readout terms readoutRange gathers into a stack
// buffer per signedSums call; a multiple of the eight-term block.
const zChunk = 128

// ExpZ writes per-qubit Pauli-Z expectations into out (n×nq, row-major):
// ⟨Z_q⟩ = Σ_j sign_q(j)·|ψ_j|², sign −1 when bit q of j is set.
func (s *State) ExpZ(out []float64) {
	par.ForGrain(s.N, s.Dim*s.NQ, func(lo, hi int) {
		readoutRange(s, nil, out, lo, hi, &identityReadout)
	})
}

// CrossZ writes the per-qubit cross terms 2·Σ_j sign_q(j)·Re(v_j*·w_j) into
// out (n×nq): the directional derivative of ⟨Z_q⟩ when the state moves from
// v in direction w (tangent-channel readout).
func CrossZ(v, w *State, out []float64) {
	par.ForGrain(v.N, v.Dim*v.NQ, func(lo, hi int) {
		readoutRange(v, w, out, lo, hi, &identityReadout)
	})
}

// readoutRange is ExpZ (w nil) or CrossZ for samples [lo, hi), reading the
// states through ro. Each pass over a sample keeps eight sums in
// registers: qubits 0–2, whose signs change inside an eight-term block, and
// five of the qubits from 3 up, whose signs hold across it. One pass covers
// eight qubits; each further pass recomputes the terms for five more.
//
//torq:hotpath
func readoutRange(v, w *State, out []float64, lo, hi int, ro *basisWalk) {
	dim, nq := v.Dim, v.NQ
	// The buffer starts zeroed, and a state below eight amplitudes never
	// writes past dim, so its block is padded with +0 terms. Those leave
	// every sum's bits alone: a sum that starts at +0 is never −0.
	var buf [zChunk]float64
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		zrow := out[smp*nq : (smp+1)*nq]
		for q3 := 3; q3 == 3 || q3 < nq; q3 += 5 {
			var z [8]float64
			for j0, src := 0, 0; j0 < dim; j0 += zChunk {
				p := buf[:min(zChunk, dim-j0)]
				if w == nil {
					src = gatherNorms(p, v, off, j0, src, ro)
				} else {
					src = gatherCross(p, v, w, off, j0, src, ro)
				}
				signedSums(&z, buf[:max(len(p), 8)], j0>>3, q3-3)
			}
			copy(zrow, z[:3])
			if q3 < nq {
				copy(zrow[q3:], z[3:])
			}
		}
	}
}

// gatherNorms fills p with the readout terms |ψ_j|² of basis states
// j = j0, j0+1, … of the sample at offset off, reading ψ_j at index src(j)
// starting from src = src(j0), and returns src of the next state.
func gatherNorms(p []float64, v *State, off, j0, src int, ro *basisWalk) int {
	re, im := v.Re[off:off+v.Dim], v.Im[off:off+v.Dim]
	for i := range p {
		p[i] = float64(re[src]*re[src]) + float64(im[src]*im[src])
		src = ro.next(src, j0+i)
	}
	return src
}

// gatherCross is gatherNorms for the tangent terms 2·Re(v_j*·w_j).
func gatherCross(p []float64, v, w *State, off, j0, src int, ro *basisWalk) int {
	vr, vi := v.Re[off:off+v.Dim], v.Im[off:off+v.Dim]
	wr, wi := w.Re[off:off+v.Dim], w.Im[off:off+v.Dim]
	for i := range p {
		p[i] = 2 * (float64(vr[src]*wr[src]) + float64(vi[src]*wi[src]))
		src = ro.next(src, j0+i)
	}
	return src
}

// signedSums adds the terms p[i] of basis states j = 8·b0 + i, in
// ascending order, to eight per-qubit sums: z[0…2] for qubits 0–2 and
// z[3+r] for qubit 3+sh+r. A term enters a sum with − where the qubit's
// bit of j is set and + where it is clear. Inside an eight-term block the
// signs of qubits 0–2 are fixed by position; those of the other five hold
// for the block, which therefore reads either the terms or their
// negations: x − p is x + (−p) in IEEE arithmetic, so the sums are those a
// branch per term would give. len(p) must be a multiple of 8.
func signedSums(z *[8]float64, p []float64, b0, sh int) {
	z0, z1, z2, z3, z4, z5, z6, z7 := z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7]
	var neg [8]float64
	for b := 0; b+8 <= len(p); b += 8 {
		pos := (*[8]float64)(p[b : b+8])
		for i, x := range pos {
			neg[i] = -x
		}
		sel := [2]*[8]float64{pos, &neg}
		t := uint(b0+b>>3) >> uint(sh)
		z0 = z0 + pos[0] - pos[1] + pos[2] - pos[3] + pos[4] - pos[5] + pos[6] - pos[7]
		z1 = z1 + pos[0] + pos[1] - pos[2] - pos[3] + pos[4] + pos[5] - pos[6] - pos[7]
		z2 = z2 + pos[0] + pos[1] + pos[2] + pos[3] - pos[4] - pos[5] - pos[6] - pos[7]
		v := sel[t&1]
		z3 = z3 + v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
		v = sel[t>>1&1]
		z4 = z4 + v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
		v = sel[t>>2&1]
		z5 = z5 + v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
		v = sel[t>>3&1]
		z6 = z6 + v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
		v = sel[t>>4&1]
		z7 = z7 + v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]
	}
	z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = z0, z1, z2, z3, z4, z5, z6, z7
}

// buildW expands one sample's per-qubit upstream gradients g (nq values)
// into its basis weights w[j] = Σ_q sign_q(j)·g[q], summed over ascending q
// from +0, and stores each at the index the readout reads basis state j
// from: wp[src(j)] = w[j]. It builds them by prefix doubling: after qubit
// q, the 2^(q+1) states j < 2^(q+1) hold every partial sum over qubits
// 0 … q, and the state j + 2^q sits at src(j) ^ src(2^q). That is
// 2^(nq+1) − 2 adds instead of nq·2^nq, and every w[j] sees the partial
// sums of the qubit-by-qubit formula in its order. wp must hold 2^nq
// floats.
func buildW(wp, g []float64, ro *basisWalk) {
	wp[0] = 0
	for q, h := 0, 1; q < len(g); q, h = q+1, h<<1 {
		gq := g[q]
		u := ro.step[q] // src(2^q)
		if q > 0 {
			u ^= ro.step[q-1]
		}
		for j, s := 0, 0; j < h; j++ {
			x := wp[s]
			wp[s] = x + gq
			wp[s^u] = x - gq
			s = ro.next(s, j)
		}
	}
}

// seedAdjointsRange seeds the adjoint states from the quadratic readout for
// samples [lo, hi), reading the forward states through ro:
//
//	z_q = Σ_j sign·|v_j|²            → λv = 2·w_v ⊙ v
//	żₖ_q = 2Σ_j sign·Re(v_j* tₖ_j)   → λv += 2·w_tk ⊙ tₖ ; λtₖ = 2·w_tk ⊙ v
//
// with w the basis weights of the upstream gradients gz and gztans[k] (nil
// for a zero gradient), stored through ro (buildW), so λ_i = 2·w[P(i)]·ψ_i
// for the permutation P the readout undoes. Each sample's weights are
// built in its scr1 real plane right before its seed. The first term
// written into an adjoint is 0 + 2·w·ψ, which is what adding it to a
// cleared state gives (−0 becomes +0); an adjoint with no term is cleared.
// Every product is rounded on its own, so no target fuses it into the sum.
//
//torq:hotpath
func seedAdjointsRange(ws *Workspace, ro *basisWalk, lo, hi int, gz []float64, gztans [MaxTangents][]float64) {
	nq, dim := ws.nq, ws.val.Dim
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		w := ws.scr1.Re[off : off+dim]
		seeded := false // λv holds a term
		if gz != nil {
			buildW(w, gz[smp*nq:(smp+1)*nq], ro)
			seedSample(ws.lamV, ws.val, w, off, false)
			seeded = true
		}
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			g := gztans[k]
			if g == nil {
				clear(ws.lamT[k].Re[off : off+dim])
				clear(ws.lamT[k].Im[off : off+dim])
				continue
			}
			buildW(w, g[smp*nq:(smp+1)*nq], ro)
			seedSample(ws.lamV, ws.tan[k], w, off, seeded)
			seedSample(ws.lamT[k], ws.val, w, off, false)
			seeded = true
		}
		if !seeded {
			clear(ws.lamV.Re[off : off+dim])
			clear(ws.lamV.Im[off : off+dim])
		}
	}
}

// seedSample writes (add false) or adds (add true) 2·w_i·ψ_i into λ_i over
// the sample at offset off.
func seedSample(lam, psi *State, w []float64, off int, add bool) {
	n := len(w)
	lr, li := lam.Re[off:off+n], lam.Im[off:off+n]
	pr, pi := psi.Re[off:off+n], psi.Im[off:off+n]
	if add {
		for i, x := range w {
			lr[i] += float64(2 * x * pr[i])
			li[i] += float64(2 * x * pi[i])
		}
		return
	}
	for i, x := range w {
		lr[i] = 0 + float64(2*x*pr[i])
		li[i] = 0 + float64(2*x*pi[i])
	}
}
