// Package qsim is the Go analogue of the paper's TorQ library (Tensor
// Operations for Research in Quantum systems): a batched statevector
// simulator with analytic (shot-free) Pauli-Z expectations and an adjoint
// differentiation path that recomputes intermediate states through gate
// inverses instead of storing them. The batching and the O(1)-state adjoint
// are exactly the two architectural choices that give TorQ its >50× speed
// and >6× memory advantage over per-sample simulators in the paper's
// Table 2; the naive comparators in this package reproduce the losing
// architectures.
//
// Execution is split into a compile and an execute stage. CompileProgram
// lowers a Circuit plus its RX angle embedding into a flat instruction
// stream, fusing single-qubit runs, diagonal groups and pairs of runs into
// super-ops. It emits no instruction for a CNOT: it tracks the CNOTs in a
// GF(2) basis frame (frame.go) through which every later instruction, and
// the readout, addresses the amplitudes. Programs run behind the
// Engine interface: the default sharded engine streams the whole program —
// forward, tangent channels, and the adjoint backward — through one sample
// shard at a time inside a single parallel region, so a batch pays one
// fork/join per pass and each sample's 2^nq amplitudes stay cache-resident
// across every instruction. The naive engine compiles nothing: it runs the
// circuit gate by gate, each gate a dense 2^nq×2^nq matrix per sample
// (naive.go), and is the reference the parity tests check the others
// against. EvalZ runs it; FinalState runs the compiled program and reads
// its state back through the program's readout map.
//
// The sharded executor runs five instruction forms and calls their range
// kernels directly: the two embedding blocks (opEmbedProd, opEmbedAll) and
// the fused super-ops opU4, opDiagN and, in one-qubit programs only, opU2.
// The opU4 kernels and the re-upload embedding find their amplitude groups
// by walking the block's frame masks (groupWalk). A diagonal chain no
// fusion pass absorbed is lowered onto opU4.
//
// The opU4 entangler block, a dense 4×4 unitary on a qubit pair and most of
// a Strongly-Entangling step, has AVX2 assembly kernels on amd64 for its
// forward apply and its fused adjoint (u4_amd64.s), chosen at start-up from
// CPUID (internal/cpufeat). Their YMM lanes run across the four output rows
// of U or U†: each input amplitude is broadcast and multiplied by a column
// of a column-packed copy of the matrix (packed once per pass), and every
// sum is a VMULPD followed by a VADDPD or VSUBPD in the scalar expression's
// order, never a fused multiply-add. The adjoint keeps the 32 entries of
// its outer product K in eight YMM registers for a whole call. The
// product-state first embedding (opEmbedProd), which also applies the
// rotations in front of the first two-qubit gate as one 2×2 factor per
// qubit, has AVX2 step kernels too (embed_amd64.s), one amplitude per lane,
// with level sums kept in four lanes in both implementations. The pure-Go
// kernels run everywhere else and are the oracle.
//
// # Invariants
//
// The sharded engine agrees with the naive reference to 1e-10 on z,
// tangents, and all gradients (pinned by the engine-parity tests); the
// sharded and dist engines agree bit-for-bit with each other. They
// partition a batch into fixed cache-block shards keyed by lo/blockSamples,
// accumulate gradients per shard, and merge in ascending shard order — so
// their results are bit-identical for any worker count or process
// placement. These guarantees rest on par.RunChunk's
// partition determinism (see the par package doc) and must survive any
// scheduler or transport change. The opU4 assembly kernels reproduce their
// pure-Go oracles bit for bit (same terms, same order, no fused
// multiply-add), so whether a CPU has AVX2 moves no output, gradient,
// digest or training trajectory.
package qsim

import (
	"math/bits"

	"repro/internal/par"
)

// State is a batch of pure statevectors: n samples over nq qubits, stored
// row-major as separate real and imaginary planes of length n·2^nq.
// Basis-state bit q of the flattened index addresses qubit q (little-endian).
type State struct {
	N   int // batch size
	NQ  int // qubit count
	Dim int // 2^NQ
	Re  []float64
	Im  []float64
}

// NewState allocates a batch initialized to |0…0⟩ for every sample.
func NewState(n, nq int) *State {
	dim := 1 << nq
	s := &State{N: n, NQ: nq, Dim: dim, Re: make([]float64, n*dim), Im: make([]float64, n*dim)}
	for i := 0; i < n; i++ {
		s.Re[i*dim] = 1
	}
	return s
}

// NewZeroState allocates an all-zero batch (used for tangent channels).
func NewZeroState(n, nq int) *State {
	dim := 1 << nq
	return &State{N: n, NQ: nq, Dim: dim, Re: make([]float64, n*dim), Im: make([]float64, n*dim)}
}

// Reset restores |0…0⟩ (zero=false) or the zero vector (zero=true).
func (s *State) Reset(zero bool) {
	s.resetRange(0, s.N, zero)
}

// resetRange is Reset restricted to samples [lo, hi).
func (s *State) resetRange(lo, hi int, zero bool) {
	dim := s.Dim
	for i := lo * dim; i < hi*dim; i++ {
		s.Re[i] = 0
		s.Im[i] = 0
	}
	if !zero {
		for i := lo; i < hi; i++ {
			s.Re[i*dim] = 1
		}
	}
}

// CopyFrom copies src into s (shapes must match).
func (s *State) CopyFrom(src *State) {
	copy(s.Re, src.Re)
	copy(s.Im, src.Im)
}

// Norm2 returns the squared norm of each sample's statevector.
func (s *State) Norm2() []float64 {
	out := make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		var sum float64
		for j := i * s.Dim; j < (i+1)*s.Dim; j++ {
			sum += s.Re[j]*s.Re[j] + s.Im[j]*s.Im[j]
		}
		out[i] = sum
	}
	return out
}

// applyU2Range applies an arbitrary 2×2 unitary on qubit q to samples
// [lo, hi), given row-major as interleaved re/im pairs u = [u00r, u00i,
// u01r, u01i, u10r, u10i, u11r, u11i] — the kernel behind fused runs of
// single-qubit gates.
//
//torq:hotpath
func (s *State) applyU2Range(lo, hi, q int, u *[8]float64) {
	stride := 1 << q
	step := stride << 1
	dim := s.Dim
	re, im := s.Re, s.Im
	ar, ai, br, bi := u[0], u[1], u[2], u[3]
	cr, ci, dr, di := u[4], u[5], u[6], u[7]
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += step {
			base := off + blk
			for j := base; j < base+stride; j++ {
				k := j + stride
				r0, i0, r1, i1 := re[j], im[j], re[k], im[k]
				re[j] = ar*r0 - ai*i0 + br*r1 - bi*i1
				im[j] = ar*i0 + ai*r0 + br*i1 + bi*r1
				re[k] = cr*r0 - ci*i0 + dr*r1 - di*i1
				im[k] = cr*i0 + ci*r0 + dr*i1 + di*r1
			}
		}
	}
}

// applyDiagNRange applies a full-register diagonal with per-basis complex
// phases ph (interleaved re/im, length 2·Dim) to samples [lo, hi) — the
// kernel behind fused diagonal chains (CRZ meshes).
//
//torq:hotpath
func (s *State) applyDiagNRange(lo, hi int, ph []float64) {
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for j := 0; j < dim; j++ {
			pr, pi := ph[2*j], ph[2*j+1]
			r, i := re[off+j], im[off+j]
			re[off+j] = pr*r - pi*i
			im[off+j] = pr*i + pi*r
		}
	}
}

// innerRe writes per-sample Re⟨a|b⟩ into out (length n).
func innerRe(a, b *State, out []float64) {
	par.ForGrain(a.N, a.Dim, func(lo, hi int) {
		innerReRange(a, b, out, lo, hi)
	})
}

//torq:hotpath
func innerReRange(a, b *State, out []float64, lo, hi int) {
	dim := a.Dim
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		var sum float64
		for j := off; j < off+dim; j++ {
			sum += a.Re[j]*b.Re[j] + a.Im[j]*b.Im[j]
		}
		out[smp] = sum
	}
}

// axpyState computes dst += c ⊙ src with a per-sample coefficient c.
func axpyState(dst, src *State, c []float64) {
	par.ForGrain(dst.N, dst.Dim, func(lo, hi int) {
		axpyRange(dst, src, c, lo, hi)
	})
}

//torq:hotpath
func axpyRange(dst, src *State, c []float64, lo, hi int) {
	dim := dst.Dim
	for smp := lo; smp < hi; smp++ {
		f := c[smp]
		if f == 0 {
			continue
		}
		off := smp * dim
		for j := off; j < off+dim; j++ {
			dst.Re[j] += f * src.Re[j]
			dst.Im[j] += f * src.Im[j]
		}
	}
}

// applyIXSample applies a·I − i·b·X on the qubit w addresses to one
// sample — the scalar building block of the re-upload embedding kernels,
// which walk sample-major so one sample's amplitudes stay cache-hot across
// the whole per-qubit embedding sequence. w is a one-qubit walk of the
// program's frame: each pair is a base j and j^m.
func (s *State) applyIXSample(smp int, w *groupWalk, a, b float64) {
	dim := s.Dim
	re, im := s.Re[smp*dim:(smp+1)*dim], s.Im[smp*dim:(smp+1)*dim]
	m := w.ma
	for g, j := 0, 0; g < dim/2; g++ {
		k := j ^ m
		r0, i0, r1, i1 := re[j], im[j], re[k], im[k]
		re[j] = a*r0 + b*i1
		im[j] = a*i0 - b*r1
		re[k] = b*i0 + a*r1
		im[k] = -b*r0 + a*i1
		j ^= w.walk.step[bits.TrailingZeros(uint(g+1))&63]
	}
}

// copySample copies one sample of src into s.
func (s *State) copySample(src *State, smp int) {
	dim := s.Dim
	copy(s.Re[smp*dim:(smp+1)*dim], src.Re[smp*dim:(smp+1)*dim])
	copy(s.Im[smp*dim:(smp+1)*dim], src.Im[smp*dim:(smp+1)*dim])
}

// innerReSample returns Re⟨a|b⟩ for one sample.
func innerReSample(a, b *State, smp int) float64 {
	dim := a.Dim
	var sum float64
	for j := smp * dim; j < (smp+1)*dim; j++ {
		sum += a.Re[j]*b.Re[j] + a.Im[j]*b.Im[j]
	}
	return sum
}

// axpySample computes dst += c·src on one sample.
func axpySample(dst, src *State, c float64, smp int) {
	if c == 0 {
		return
	}
	dim := dst.Dim
	for j := smp * dim; j < (smp+1)*dim; j++ {
		dst.Re[j] += c * src.Re[j]
		dst.Im[j] += c * src.Im[j]
	}
}
