package qsim

import "math"

// EvalZ runs the embedding, the ansatz and the per-qubit ⟨Z⟩ readout for a
// batch of n samples on the naive engine, with no tangents and no gradient.
// Used by the parameter-shift rule, whose oracle role needs a path that
// shares no code with the compiled program, and by the Fig. 3 scaling study;
// no training path calls it. Every gate is a dense 2^nq×2^nq matrix applied
// to every sample, so a call costs O(4^nq) time per gate and sample, and it
// allocates one 16·4^nq-byte matrix (256 KiB at 7 qubits) per ansatz gate
// and per embedding rotation and sample.
func EvalZ(circ *Circuit, angles, theta []float64, n int) []float64 {
	p := &PQC{Circ: circ, Eng: EngineNaive}
	z, _ := naiveEngine{}.Forward(p, NewWorkspace(n, circ.NumQubits), angles, nil, theta)
	return z
}

// FinalState runs the compiled program on the batch (the sharded engine's
// forward pass, no tangents) and returns its output statevector, for
// entanglement diagnostics. The program tracks CNOTs in a basis frame
// instead of executing them, so it leaves amplitude j at index src(j) of its
// state; FinalState reads the state through the program's readout map to
// return amplitude j at index j.
func FinalState(circ *Circuit, angles, theta []float64, n int) *State {
	p := &PQC{Circ: circ}
	ws := NewWorkspace(n, circ.NumQubits)
	shardedEngine{}.Forward(p, ws, angles, nil, theta)
	ro := &p.Program().readout
	out := NewZeroState(n, circ.NumQubits)
	dim := out.Dim
	for off := 0; off < n*dim; off += dim {
		for j, src := 0, 0; j < dim; j++ {
			out.Re[off+j], out.Im[off+j] = ws.val.Re[off+src], ws.val.Im[off+src]
			src = ro.next(src, j)
		}
	}
	return out
}

// ParameterShiftGrad computes d⟨Z⟩/dθ_p for every ansatz parameter via the
// hardware-compatible parameter-shift rule. The result is indexed
// [p][i*nq+q]. This is the differentiation method the paper notes would
// replace backpropagation on real quantum hardware (§2.3).
//
// Single-qubit rotations have generator spectrum ±1/2 (one frequency), so
// the two-term ±π/2 rule is exact. A controlled rotation's generator
// |1⟩⟨1|⊗Z/2 has spectrum {0, ±1/2} — two frequencies {1/2, 1} — for which
// the two-term rule is NOT valid; CRZ parameters use the exact four-term
// rule with shifts ±π/2, ±3π/2 and coefficients (√2±1)/(4√2).
func ParameterShiftGrad(circ *Circuit, angles, theta []float64, n int) [][]float64 {
	kinds := make([]GateKind, circ.NumParams)
	for _, g := range circ.Gates {
		if g.P >= 0 {
			kinds[g.P] = g.Kind
		}
	}
	grads := make([][]float64, circ.NumParams)
	shifted := append([]float64(nil), theta...)
	for p := 0; p < circ.NumParams; p++ {
		evalAt := func(d float64) []float64 {
			shifted[p] = theta[p] + d
			z := EvalZ(circ, angles, shifted, n)
			shifted[p] = theta[p]
			return z
		}
		var g []float64
		if kinds[p] == CRZ {
			zp1, zm1 := evalAt(math.Pi/2), evalAt(-math.Pi/2)
			zp3, zm3 := evalAt(3*math.Pi/2), evalAt(-3*math.Pi/2)
			cPlus := (math.Sqrt2 + 1) / (4 * math.Sqrt2)
			cMinus := (math.Sqrt2 - 1) / (4 * math.Sqrt2)
			g = make([]float64, len(zp1))
			for i := range g {
				g[i] = cPlus*(zp1[i]-zm1[i]) - cMinus*(zp3[i]-zm3[i])
			}
		} else {
			zp, zm := evalAt(math.Pi/2), evalAt(-math.Pi/2)
			g = make([]float64, len(zp))
			for i := range g {
				g[i] = (zp[i] - zm[i]) / 2
			}
		}
		grads[p] = g
	}
	return grads
}

// MeyerWallach returns the Meyer–Wallach global entanglement measure
// Q = 2(1 − (1/n)Σ_q Tr ρ_q²) averaged over the batch — the quantity the
// paper tracks in Fig. 10e to show the black-hole collapse is not an
// entanglement phenomenon. Q = 0 for product states, → 1 with increasing
// global entanglement.
func MeyerWallach(st *State) float64 {
	nq, dim := st.NQ, st.Dim
	var acc float64
	for i := 0; i < st.N; i++ {
		off := i * dim
		var sumPurity float64
		for q := 0; q < nq; q++ {
			mask := 1 << q
			var r00, r11 float64
			var r01re, r01im float64
			for j := 0; j < dim; j++ {
				if j&mask != 0 {
					continue
				}
				k := j | mask
				a0r, a0i := st.Re[off+j], st.Im[off+j]
				a1r, a1i := st.Re[off+k], st.Im[off+k]
				r00 += a0r*a0r + a0i*a0i
				r11 += a1r*a1r + a1i*a1i
				// ρ01 = Σ a0 · conj(a1)
				r01re += a0r*a1r + a0i*a1i
				r01im += a0i*a1r - a0r*a1i
			}
			sumPurity += r00*r00 + r11*r11 + 2*(r01re*r01re+r01im*r01im)
		}
		acc += 2 * (1 - sumPurity/float64(nq))
	}
	return acc / float64(st.N)
}
