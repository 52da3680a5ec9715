package qsim

import (
	"math"
	"math/rand"
	"sort"
)

// EvalZ is the plain (no-gradient) execution path: embedding + ansatz +
// per-qubit ⟨Z⟩ for a batch of n samples. Used by the parameter-shift rule,
// diagnostics, and the Fig. 12 initialization study.
func EvalZ(circ *Circuit, angles, theta []float64, n int) []float64 {
	st := runPlain(circ, angles, theta, n, nil)
	out := make([]float64, n*circ.NumQubits)
	st.ExpZ(out)
	return out
}

// FinalState runs the circuit and returns the batch statevector (for
// entanglement diagnostics).
func FinalState(circ *Circuit, angles, theta []float64, n int) *State {
	return runPlain(circ, angles, theta, n, nil)
}

// runPlain runs circ gate by gate on a fresh batch state, the way every
// engine does: the RX angle embedding, then the ansatz gates, re-embedding
// before every layer under data re-uploading. noise, when non-nil, runs
// after every embedding rotation (c = −1) and every gate, on the qubits it
// touched.
func runPlain(circ *Circuit, angles, theta []float64, n int, noise func(st *State, q, c int)) *State {
	nq := circ.NumQubits
	st := NewState(n, nq)
	c := make([]float64, n)
	s := make([]float64, n)
	for _, seg := range circ.segments() {
		for q := 0; q < nq; q++ {
			for i := 0; i < n; i++ {
				c[i] = cosHalf(angles[i*nq+q])
				s[i] = sinHalf(angles[i*nq+q])
			}
			st.ApplyIXPerSample(q, c, s)
			if noise != nil {
				noise(st, q, -1)
			}
		}
		for _, g := range seg {
			g.apply(st, theta)
			if noise != nil {
				noise(st, g.Q, g.C)
			}
		}
	}
	return st
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

// SampleZ estimates per-qubit ⟨Z⟩ from a finite number of measurement shots
// drawn from the final state's Born distribution — the execution model on
// real hardware, as opposed to the analytic expectations used throughout
// the paper's simulator runs. Each sample builds its cumulative distribution
// once and draws shots by binary search, so the per-shot cost is O(log dim)
// rather than the O(dim) linear scan that made large shot counts quadratic
// in practice.
func SampleZ(circ *Circuit, angles, theta []float64, n, shots int, rng *rand.Rand) []float64 {
	st := FinalState(circ, angles, theta, n)
	nq, dim := st.NQ, st.Dim
	out := make([]float64, n*nq)
	cdf := make([]float64, dim)
	for i := 0; i < n; i++ {
		off := i * dim
		var total float64
		for j := 0; j < dim; j++ {
			total += st.Re[off+j]*st.Re[off+j] + st.Im[off+j]*st.Im[off+j]
			cdf[j] = total
		}
		counts := make([]int, dim)
		for s := 0; s < shots; s++ {
			r := rng.Float64() * total
			k := sort.Search(dim, func(j int) bool { return cdf[j] > r })
			if k == dim { // r landed on the rounding tail of the last bin
				k = dim - 1
			}
			counts[k]++
		}
		for q := 0; q < nq; q++ {
			var z float64
			for j, cnt := range counts {
				if cnt == 0 {
					continue
				}
				if j&(1<<q) == 0 {
					z += float64(cnt)
				} else {
					z -= float64(cnt)
				}
			}
			out[i*nq+q] = z / float64(shots)
		}
	}
	return out
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
