package qsim

import "math"

// This file implements the two losing architectures of the paper's Table 2,
// used both as performance comparators and as brute-force references in the
// test suite.
//
// NaiveSimulator mirrors PennyLane's default.qubit execution model: every
// gate is expanded to a dense 2^n×2^n matrix via Kronecker products and
// applied sample-by-sample with a matrix–vector product. KronSimulator
// mirrors the full-unitary pipeline (Qiskit-style operator composition):
// the whole circuit is first composed into one dense unitary with 2^n×2^n
// matrix–matrix products, then applied per sample.

// cvec is a dense complex vector.
type cvec []complex128

// cmat is a dense row-major complex matrix.
type cmat struct {
	n    int
	data []complex128
}

func newCmat(n int) cmat { return cmat{n: n, data: make([]complex128, n*n)} }

func eye(n int) cmat {
	m := newCmat(n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

func (m cmat) at(i, j int) complex128     { return m.data[i*m.n+j] }
func (m cmat) set(i, j int, v complex128) { m.data[i*m.n+j] = v }

// mul returns a·b for dense complex matrices.
func (a cmat) mul(b cmat) cmat {
	n := a.n
	out := newCmat(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := a.data[i*n+k]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.data[i*n+j] += av * b.data[k*n+j]
			}
		}
	}
	return out
}

// matvec applies m to v.
func (m cmat) matvec(v cvec) cvec {
	out := make(cvec, m.n)
	for i := 0; i < m.n; i++ {
		var s complex128
		row := m.data[i*m.n : (i+1)*m.n]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// gateMatrix2 returns the 2×2 matrix of a single-qubit rotation.
func gateMatrix2(kind GateKind, theta float64) [2][2]complex128 {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	switch kind {
	case RX:
		return [2][2]complex128{{complex(c, 0), complex(0, -s)}, {complex(0, -s), complex(c, 0)}}
	case RY:
		return [2][2]complex128{{complex(c, 0), complex(-s, 0)}, {complex(s, 0), complex(c, 0)}}
	case RZ:
		return [2][2]complex128{{complex(c, -s), 0}, {0, complex(c, s)}}
	}
	panic("qsim: not a single-qubit rotation")
}

// place1Q embeds a 2×2 matrix acting on qubit q into the full-dimension
// matrix m via Kronecker-product placement.
func place1Q(m cmat, q int, u [2][2]complex128) {
	dim := m.n
	mask := 1 << q
	for j := 0; j < dim; j++ {
		jb := (j >> q) & 1
		for _, tb := range []int{0, 1} {
			i := (j &^ mask) | (tb << q)
			m.data[i*dim+j] += u[tb][jb]
		}
	}
}

// expand builds the full 2^nq × 2^nq matrix of gate g via Kronecker-product
// placement — the deliberately naive construction.
func expand(g Gate, theta []float64, nq int) cmat {
	var angle float64
	if g.P >= 0 {
		angle = theta[g.P]
	}
	return expandAngle(g, angle, nq)
}

// expandAngle is expand with the rotation angle already resolved, so the
// naive engine can build inverse matrices by negating it.
func expandAngle(g Gate, angle float64, nq int) cmat {
	dim := 1 << nq
	m := newCmat(dim)
	switch g.Kind {
	case RX, RY, RZ:
		place1Q(m, g.Q, gateMatrix2(g.Kind, angle))
	case CNOT:
		cMask, tMask := 1<<g.C, 1<<g.Q
		for j := 0; j < dim; j++ {
			i := j
			if j&cMask != 0 {
				i = j ^ tMask
			}
			m.data[i*dim+j] = 1
		}
	case CRZ:
		c, s := math.Cos(angle/2), math.Sin(angle/2)
		cMask, tMask := 1<<g.C, 1<<g.Q
		for j := 0; j < dim; j++ {
			switch {
			case j&cMask == 0:
				m.data[j*dim+j] = 1
			case j&tMask == 0:
				m.data[j*dim+j] = complex(c, -s)
			default:
				m.data[j*dim+j] = complex(c, s)
			}
		}
	}
	return m
}

// embedMatrix returns the full matrix of the RX embedding on qubit q.
func embedMatrix(q int, angle float64, nq int) cmat {
	return expand(Gate{Kind: RX, Q: q, C: -1, P: 0}, []float64{angle}, nq)
}

// NaiveSimulator runs the circuit sample-by-sample, expanding each gate to a
// dense matrix at every application (PennyLane default.qubit-style).
type NaiveSimulator struct {
	Circ *Circuit
}

// Run returns per-qubit ⟨Z⟩ for each sample (n×nq row-major).
func (ns *NaiveSimulator) Run(angles []float64, theta []float64, n int) []float64 {
	nq := ns.Circ.NumQubits
	dim := 1 << nq
	out := make([]float64, n*nq)
	for i := 0; i < n; i++ {
		v := make(cvec, dim)
		v[0] = 1
		for q := 0; q < nq; q++ {
			v = embedMatrix(q, angles[i*nq+q], nq).matvec(v)
		}
		for _, g := range ns.Circ.Gates {
			v = expand(g, theta, nq).matvec(v)
		}
		writeExpZ(v, nq, out[i*nq:(i+1)*nq])
	}
	return out
}

// KronSimulator composes the entire circuit into a single dense unitary and
// applies it per sample. Because the embedding angles differ per sample, the
// unitary is recomposed for every sample — the architectural cost this
// comparator is meant to expose.
type KronSimulator struct {
	Circ *Circuit
}

// Run returns per-qubit ⟨Z⟩ for each sample (n×nq row-major).
func (ks *KronSimulator) Run(angles []float64, theta []float64, n int) []float64 {
	nq := ks.Circ.NumQubits
	dim := 1 << nq
	out := make([]float64, n*nq)
	for i := 0; i < n; i++ {
		u := eye(dim)
		for q := 0; q < nq; q++ {
			u = embedMatrix(q, angles[i*nq+q], nq).mul(u)
		}
		for _, g := range ks.Circ.Gates {
			u = expand(g, theta, nq).mul(u)
		}
		v := make(cvec, dim)
		v[0] = 1
		v = u.matvec(v)
		writeExpZ(v, nq, out[i*nq:(i+1)*nq])
	}
	return out
}

func writeExpZ(v cvec, nq int, out []float64) {
	for q := range out {
		out[q] = 0
	}
	for j, a := range v {
		p := real(a)*real(a) + imag(a)*imag(a)
		for q := 0; q < nq; q++ {
			if j&(1<<q) == 0 {
				out[q] += p
			} else {
				out[q] -= p
			}
		}
	}
}

// expandDeriv builds the dense matrix of dU/dθ for a parametrized gate —
// the CRZ derivative is zero on the control-unset subspace, so no separate
// masking step is needed in the dense path.
func expandDeriv(g Gate, angle float64, nq int) cmat {
	dim := 1 << nq
	m := newCmat(dim)
	c, s := math.Cos(angle/2), math.Sin(angle/2)
	switch g.Kind {
	case RX:
		place1Q(m, g.Q, [2][2]complex128{
			{complex(-s/2, 0), complex(0, -c/2)},
			{complex(0, -c/2), complex(-s/2, 0)}})
	case RY:
		place1Q(m, g.Q, [2][2]complex128{
			{complex(-s/2, 0), complex(-c/2, 0)},
			{complex(c/2, 0), complex(-s/2, 0)}})
	case RZ:
		place1Q(m, g.Q, [2][2]complex128{
			{complex(-s/2, -c/2), 0},
			{0, complex(-s/2, c/2)}})
	case CRZ:
		cMask, tMask := 1<<g.C, 1<<g.Q
		for j := 0; j < dim; j++ {
			if j&cMask == 0 {
				continue
			}
			if j&tMask == 0 {
				m.data[j*dim+j] = complex(-s/2, -c/2)
			} else {
				m.data[j*dim+j] = complex(-s/2, c/2)
			}
		}
	default:
		panic("qsim: derivative of non-parametrized gate")
	}
	return m
}

// denseApplySample applies m to one sample's statevector in place.
func denseApplySample(s *State, smp int, m cmat) {
	dim := s.Dim
	off := smp * dim
	v := make(cvec, dim)
	for j := 0; j < dim; j++ {
		v[j] = complex(s.Re[off+j], s.Im[off+j])
	}
	w := m.matvec(v)
	for j := 0; j < dim; j++ {
		s.Re[off+j], s.Im[off+j] = real(w[j]), imag(w[j])
	}
}

// denseApplyAll applies m to every sample of the batch.
func denseApplyAll(s *State, m cmat) {
	for smp := 0; smp < s.N; smp++ {
		denseApplySample(s, smp, m)
	}
}

// denseApplyIX applies a[smp]·I − i·b[smp]·X on qubit q to each sample as a
// dense matrix built per sample: the naive engine's embedding RX(φ)
// (a = cos φ/2, b = sin φ/2), its inverse (b negated) and its φ-derivative
// (a = −sin(φ/2)/2, b = cos(φ/2)/2).
func denseApplyIX(s *State, q int, a, b []float64) {
	dim := s.Dim
	for smp := 0; smp < s.N; smp++ {
		m := newCmat(dim)
		place1Q(m, q, [2][2]complex128{
			{complex(a[smp], 0), complex(0, -b[smp])},
			{complex(0, -b[smp]), complex(a[smp], 0)}})
		denseApplySample(s, smp, m)
	}
}

// instrMatrix expands one compiled non-embedding instruction into its dense
// 2^nq×2^nq matrix from the filled coefficient slots — the brute-force
// oracle the compiler-level parity tests use to check that every fusion
// pass (single-qubit runs, diagonal merges, pair blocks under their CNOT
// frames, full-register diagonals) preserves the circuit's net unitary
// exactly.
func (p *Program) instrMatrix(in instr, coeff []float64) cmat {
	nq := p.circ.NumQubits
	dim := 1 << nq
	m := newCmat(dim)
	switch in.op {
	case opU2:
		u := coeff[in.slot : in.slot+8]
		place1Q(m, in.q, [2][2]complex128{
			{complex(u[0], u[1]), complex(u[2], u[3])},
			{complex(u[4], u[5]), complex(u[6], u[7])},
		})
	case opU4:
		// Column col's local index reads the pair's bits through its frame
		// rows; the rows of its group are the base XOR the flip masks.
		u := coeff[in.slot : in.slot+32]
		va, vb := in.v[0], in.v[1]
		for col := 0; col < dim; col++ {
			la, lb := parity(va.r&col), parity(vb.r&col)
			lc := la | lb<<1
			base := col ^ la*va.m ^ lb*vb.m
			for lr := 0; lr < 4; lr++ {
				row := base ^ (lr&1)*va.m ^ (lr>>1)*vb.m
				m.data[row*dim+col] = complex(u[(lr*4+lc)*2], u[(lr*4+lc)*2+1])
			}
		}
	case opDiagN:
		u := coeff[in.slot : in.slot+2*dim]
		for j := 0; j < dim; j++ {
			m.data[j*dim+j] = complex(u[2*j], u[2*j+1])
		}
	default:
		panic("qsim: instrMatrix on embedding instruction")
	}
	return m
}

// MemoryPerPoint reports bytes of statevector storage per collocation point
// for each simulator architecture, used for the Table 2 "largest grid"
// comparison: the adjoint simulator keeps O(channels) statevectors, the
// naive one a full dense gate matrix, the kron one a full circuit unitary.
func MemoryPerPoint(nq, channels int) (adjoint, naive, kron int) {
	dim := 1 << nq
	const f = 16                                 // complex128 bytes
	adjoint = 2 * (2*channels + 2) * dim * f / 2 // states + adjoints + 2 scratch (re+im planes)
	naive = (dim + dim*dim) * f                  // vector + one expanded gate matrix
	kron = (dim + 2*dim*dim) * f                 // vector + accumulated unitary + gate matrix
	return
}
