package qsim

import "math/rand"

// This file implements the noise-injection extension the paper names as
// future work (§6.3: "incorporate noise into the quantum circuits and
// investigate the impact of noise mitigation"). Noise is modeled as a
// depolarizing channel after every gate, simulated by stochastic Pauli
// insertion (Monte-Carlo wave-function / quantum-trajectory method): with
// probability p each trajectory applies a uniformly random Pauli on a
// single-qubit gate's target, or a uniformly random non-identity two-qubit
// Pauli on both qubits of an entangling gate, and expectations are averaged
// over trajectories.

// NoiseModel configures the depolarizing strength.
type NoiseModel struct {
	P            float64 // per-gate depolarizing probability
	Trajectories int     // Monte-Carlo samples
}

// applyPauli applies Pauli code 1=X, 2=Y, 3=Z on qubit q (0 is the identity
// and must not reach here).
func applyPauli(st *State, q, code int) {
	switch code {
	case 1: // X via the IX kernel with (a=0, b=1): −iX; the global phase −i is
		// unobservable in expectations.
		st.ApplyIX(q, 0, 1)
	case 2: // Y via the real rotation kernel with (a=0, b=1): [[0,−1],[1,0]] = −iY.
		st.ApplyY(q, 0, 1)
	case 3: // Z = diag(1, −1).
		st.ApplyDiag(q, 1, 0, -1, 0)
	}
}

// applyRandomPauli applies a uniformly random Pauli (X, Y or Z) on qubit q —
// the single-qubit depolarizing trajectory branch.
func applyRandomPauli(st *State, q int, rng *rand.Rand) {
	applyPauli(st, q, 1+rng.Intn(3))
}

// applyRandomPauli2 applies a uniformly random non-identity two-qubit Pauli
// P_a⊗P_b on the qubit pair (a, b) — one of the 15 error operators of the
// two-qubit depolarizing channel. A two-qubit gate's noise must cover both
// of its qubits: drawing only single-qubit Paulis on the target would leave
// the control error-free and is not a depolarizing channel on the pair.
func applyRandomPauli2(st *State, a, b int, rng *rand.Rand) {
	idx := 1 + rng.Intn(15) // (pa, pb) ≠ (I, I)
	if pa := idx & 3; pa != 0 {
		applyPauli(st, a, pa)
	}
	if pb := idx >> 2; pb != 0 {
		applyPauli(st, b, pb)
	}
}

// NoisyEvalZ runs the circuit under the depolarizing model and returns
// trajectory-averaged per-qubit ⟨Z⟩ (n×nq). With nm.P = 0 it reduces to
// EvalZ exactly.
func NoisyEvalZ(circ *Circuit, angles, theta []float64, n int, nm NoiseModel, rng *rand.Rand) []float64 {
	if nm.P <= 0 || nm.Trajectories <= 0 {
		return EvalZ(circ, angles, theta, n)
	}
	// One draw after every embedding rotation and every gate, in circuit
	// order; a two-qubit gate's error covers both of its qubits.
	noise := func(st *State, q, c int) {
		if rng.Float64() < nm.P {
			if c >= 0 {
				applyRandomPauli2(st, c, q, rng)
			} else {
				applyRandomPauli(st, q, rng)
			}
		}
	}
	nq := circ.NumQubits
	acc := make([]float64, n*nq)
	z := make([]float64, n*nq)
	for traj := 0; traj < nm.Trajectories; traj++ {
		runPlain(circ, angles, theta, n, noise).ExpZ(z)
		for i := range acc {
			acc[i] += z[i]
		}
	}
	inv := 1 / float64(nm.Trajectories)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}
