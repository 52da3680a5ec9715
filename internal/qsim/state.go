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
// across every instruction. The legacy
// engine preserves the original one-parallel-sweep-per-gate execution and
// the naive engine applies dense 2^nq×2^nq matrices per gate; both serve as
// comparators and parity references.
//
// The batchwide Apply* methods on State apply one source gate to the whole
// batch by parallelizing a per-sample-range kernel; the legacy engine and
// the reference paths (EvalZ, the noise channels) use them. The sharded
// executor runs five instruction forms and calls their range kernels
// directly: the two embedding blocks (opEmbedProd, opEmbedAll) and the
// fused super-ops opU4, opDiagN and, in one-qubit programs only, opU2,
// which have range kernels only. The opU4 kernels and the re-upload
// embedding find their amplitude groups by walking the block's frame
// masks (groupWalk). A diagonal chain no fusion pass absorbed is lowered
// onto opU4, so the diagonal range kernels serve ApplyDiag and
// ApplyCtrlDiag alone, and the CNOT kernel ApplyCNOT.
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
// Every engine agrees with every other to 1e-10 relative tolerance on z,
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

// gateCost approximates per-sample work for parallel grain decisions.
func (s *State) gateCost() int { return s.Dim }

// ApplyIX applies the matrix a·I − i·b·X on qubit q with uniform
// coefficients: covers RX(θ) (a=cos θ/2, b=sin θ/2), its θ-derivative
// (a=−sin(θ/2)/2, b=cos(θ/2)/2) and its adjoint (b negated).
func (s *State) ApplyIX(q int, a, b float64) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyIXRange(lo, hi, q, a, b)
	})
}

//torq:hotpath
func (s *State) applyIXRange(lo, hi, q int, a, b float64) {
	stride := 1 << q
	step := stride << 1
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += step {
			base := off + blk
			for j := base; j < base+stride; j++ {
				k := j + stride
				r0, i0, r1, i1 := re[j], im[j], re[k], im[k]
				// a0' = a·a0 − i b·a1 ; a1' = −i b·a0 + a·a1
				re[j] = a*r0 + b*i1
				im[j] = a*i0 - b*r1
				re[k] = b*i0 + a*r1
				im[k] = -b*r0 + a*i1
			}
		}
	}
}

// ApplyIXPerSample is ApplyIX with per-sample coefficients (the angle
// embedding layer, whose rotation angle is a network activation).
func (s *State) ApplyIXPerSample(q int, a, b []float64) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyIXPerSampleRange(lo, hi, q, a, b)
	})
}

//torq:hotpath
func (s *State) applyIXPerSampleRange(lo, hi, q int, a, b []float64) {
	stride := 1 << q
	step := stride << 1
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		av, bv := a[smp], b[smp]
		off := smp * dim
		for blk := 0; blk < dim; blk += step {
			base := off + blk
			for j := base; j < base+stride; j++ {
				k := j + stride
				r0, i0, r1, i1 := re[j], im[j], re[k], im[k]
				re[j] = av*r0 + bv*i1
				im[j] = av*i0 - bv*r1
				re[k] = bv*i0 + av*r1
				im[k] = -bv*r0 + av*i1
			}
		}
	}
}

// ApplyY applies the real matrix [[a, −b], [b, a]] on qubit q: covers RY(θ)
// (a=cos θ/2, b=sin θ/2), its derivative (a=−s/2, b=c/2) and inverse (−b).
func (s *State) ApplyY(q int, a, b float64) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyYRange(lo, hi, q, a, b)
	})
}

//torq:hotpath
func (s *State) applyYRange(lo, hi, q int, a, b float64) {
	stride := 1 << q
	step := stride << 1
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += step {
			base := off + blk
			for j := base; j < base+stride; j++ {
				k := j + stride
				r0, i0, r1, i1 := re[j], im[j], re[k], im[k]
				re[j] = a*r0 - b*r1
				im[j] = a*i0 - b*i1
				re[k] = b*r0 + a*r1
				im[k] = b*i0 + a*i1
			}
		}
	}
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

// ApplyDiag applies diag(p0, p1) on qubit q with complex phases given as
// (p0r + i·p0i, p1r + i·p1i): covers RZ(θ) with p0 = e^{−iθ/2},
// p1 = e^{+iθ/2}, its derivative, and its inverse.
func (s *State) ApplyDiag(q int, p0r, p0i, p1r, p1i float64) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyDiagRange(lo, hi, q, p0r, p0i, p1r, p1i)
	})
}

//torq:hotpath
func (s *State) applyDiagRange(lo, hi, q int, p0r, p0i, p1r, p1i float64) {
	stride := 1 << q
	step := stride << 1
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += step {
			base := off + blk
			for j := base; j < base+stride; j++ {
				k := j + stride
				r0, i0 := re[j], im[j]
				re[j] = p0r*r0 - p0i*i0
				im[j] = p0r*i0 + p0i*r0
				r1, i1 := re[k], im[k]
				re[k] = p1r*r1 - p1i*i1
				im[k] = p1r*i1 + p1i*r1
			}
		}
	}
}

// ApplyCNOT applies CNOT(control=c, target=t): amplitudes with the control
// bit set have their target pair swapped.
func (s *State) ApplyCNOT(c, t int) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyCNOTRange(lo, hi, c, t)
	})
}

//torq:hotpath
func (s *State) applyCNOTRange(lo, hi, c, t int) {
	strideT := 1 << t
	stepT := strideT << 1
	cMask := 1 << c
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += stepT {
			for j := blk; j < blk+strideT; j++ {
				if j&cMask == 0 {
					continue
				}
				a, b := off+j, off+j+strideT
				re[a], re[b] = re[b], re[a]
				im[a], im[b] = im[b], im[a]
			}
		}
	}
}

// ApplyCtrlDiag applies diag(p0, p1) on the target qubit restricted to the
// control-set subspace: CRZ and its derivative/inverse.
func (s *State) ApplyCtrlDiag(c, t int, p0r, p0i, p1r, p1i float64) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.applyCtrlDiagRange(lo, hi, c, t, p0r, p0i, p1r, p1i)
	})
}

//torq:hotpath
func (s *State) applyCtrlDiagRange(lo, hi, c, t int, p0r, p0i, p1r, p1i float64) {
	strideT := 1 << t
	stepT := strideT << 1
	cMask := 1 << c
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for blk := 0; blk < dim; blk += stepT {
			for j := blk; j < blk+strideT; j++ {
				if j&cMask == 0 {
					continue
				}
				a, b := off+j, off+j+strideT
				r0, i0 := re[a], im[a]
				re[a] = p0r*r0 - p0i*i0
				im[a] = p0r*i0 + p0i*r0
				r1, i1 := re[b], im[b]
				re[b] = p1r*r1 - p1i*i1
				im[b] = p1r*i1 + p1i*r1
			}
		}
	}
}

// ZeroOutDerivCtrl zeroes the control-unset subspace in place. The CRZ
// θ-derivative acts as d(RZ)/dθ on the control-set subspace and as the zero
// operator elsewhere, so derivative application is ApplyCtrlDiag followed by
// this mask.
func (s *State) ZeroOutDerivCtrl(c int) {
	par.ForGrain(s.N, s.gateCost(), func(lo, hi int) {
		s.zeroOutDerivCtrlRange(lo, hi, c)
	})
}

//torq:hotpath
func (s *State) zeroOutDerivCtrlRange(lo, hi, c int) {
	cMask := 1 << c
	dim := s.Dim
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		for j := 0; j < dim; j++ {
			if j&cMask == 0 {
				re[off+j] = 0
				im[off+j] = 0
			}
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
