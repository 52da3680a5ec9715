package qsim

import (
	"math/bits"
	"slices"
)

// This file holds the GF(2) basis frame the compiler tracks CNOTs in (see
// program.go) and the walks the kernels and the readout address amplitudes
// through.

// vqubit is one logical qubit as the executed program addresses it under a
// CNOT frame: the qubit's bit of the amplitude at physical index p is the
// parity of r&p, and p^m flips that bit alone.
type vqubit struct{ r, m int }

// frame maps each logical qubit to its vqubit: the amplitude the circuit
// has at logical index A·p sits at physical index p, where row q of A is
// frame[q].r and column q of A⁻¹ is frame[q].m. CNOT(c→t) multiplies A by
// the CNOT from the left, so no amplitude moves.
type frame []vqubit

func identityFrame(nq int) frame {
	f := make(frame, nq)
	for q := range f {
		f[q] = vqubit{1 << q, 1 << q}
	}
	return f
}

// cnot returns the frame after CNOT(c→t): r_t ^= r_c and m_c ^= m_t.
func (f frame) cnot(c, t int) frame {
	g := slices.Clone(f)
	g[t].r ^= g[c].r
	g[c].m ^= g[t].m
	return g
}

// parity is the GF(2) dot product of r and p given x = r&p.
func parity(x int) int { return bits.OnesCount(uint(x)) & 1 }

// independent reports whether gates on a and b act on distinct tensor
// factors of the state: each one's flip leaves the other's bit alone. Two
// vqubits of one frame are independent exactly when they are different
// qubits.
func independent(a, b vqubit) bool {
	return parity(a.r&b.m) == 0 && parity(b.r&a.m) == 0
}

// basisWalk enumerates the image of a GF(2)-linear map L in the order of
// its argument without a table of L: L(g+1) = L(g) ^ step[t], where t
// counts the trailing one bits of g and step[t] = L(2^(t+1) − 1).
type basisWalk struct {
	step [64]int
}

// newBasisWalk builds the walk of the map with L(e_k) = cols[k] for
// k < len(cols) and, above them, L(e_k) = 2^(k − len(cols) + nq): the bits
// of a sample index above an nq-qubit register, so one walk runs on across
// consecutive samples.
func newBasisWalk(cols []int, nq int) basisWalk {
	var w basisWalk
	acc := 0
	for k := range w.step {
		if k < len(cols) {
			acc ^= cols[k]
		} else if s := k - len(cols) + nq; s < 63 {
			acc ^= 1 << s
		}
		w.step[k] = acc
	}
	return w
}

// next returns L(j+1) given s = L(j).
func (w *basisWalk) next(s, j int) int {
	return s ^ w.step[bits.TrailingZeros(uint(j+1))&63]
}

// groupWalk locates the amplitude groups a gate on one or two independent
// vqubits acts on, across a run of whole samples: group g's base index is
// walk(g), which runs over the indices whose bits of those qubits are all
// clear, and its members are the base XOR each subset of the flip masks,
// in local basis order (ma is local bit 0, mb local bit 1). Under the
// identity frame the bases ascend, as bit insertion gives them.
type groupWalk struct {
	nq     int
	ma, mb int // mb is 0 for one vqubit
	walk   basisWalk
}

// newGroupWalk builds the walk of vs (one or two vqubits of an nq-qubit
// register). It panics unless every read row and flip mask is a non-zero
// index below 2^nq and vs are independent qubits, so no walk it returns
// reaches outside the samples it is run over.
func newGroupWalk(nq int, vs ...vqubit) groupWalk {
	dim := 1 << nq
	if len(vs) < 1 || len(vs) > 2 || len(vs) > nq {
		panic("qsim: group walk over a bad qubit count")
	}
	rows := make([]int, len(vs))
	for i, a := range vs {
		for j, b := range vs {
			want := 0
			if i == j {
				want = 1
			}
			if a.r <= 0 || a.r >= dim || a.m <= 0 || a.m >= dim || parity(a.r&b.m) != want {
				panic("qsim: group walk: qubit masks out of range or not independent")
			}
		}
		rows[i] = a.r
	}
	w := groupWalk{nq: nq, ma: vs[0].m, walk: newBasisWalk(kernelBasis(rows, nq), nq)}
	if len(vs) == 2 {
		w.mb = vs[1].m
	}
	return w
}

// kernelBasis returns a basis of the indices below 2^nq that have even
// parity with every row (the rows must be independent): after reducing the
// rows to distinct pivot bits, one vector per other bit f, ascending, with
// bit f set and no other non-pivot bit. Under the identity frame the rows
// are unit vectors and the basis is the unit vectors of the bits they do
// not read, so the group walk is plain bit insertion.
func kernelBasis(rows []int, nq int) []int {
	rs := slices.Clone(rows)
	piv := make([]int, len(rs))
	pivots := 0
	for i := range rs {
		piv[i] = bits.TrailingZeros(uint(rs[i]))
		for j := range rs {
			if j != i && rs[j]>>piv[i]&1 != 0 {
				rs[j] ^= rs[i]
			}
		}
		pivots |= 1 << piv[i]
	}
	var basis []int
	for f := 0; f < nq; f++ {
		if pivots>>f&1 != 0 {
			continue
		}
		v := 1 << f
		for i, r := range rs {
			if r>>f&1 != 0 {
				v |= 1 << piv[i]
			}
		}
		basis = append(basis, v)
	}
	return basis
}
