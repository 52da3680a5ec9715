package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// expZRangeRef is the ⟨Z⟩ readout written as the formula reads: one branch
// per (basis state, qubit). It is the oracle expZRange must match by bits.
func expZRangeRef(s *State, lo, hi int, out []float64) {
	dim, nq := s.Dim, s.NQ
	re, im := s.Re, s.Im
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		zrow := out[smp*nq : (smp+1)*nq]
		for q := range zrow {
			zrow[q] = 0
		}
		for j := 0; j < dim; j++ {
			p := re[off+j]*re[off+j] + im[off+j]*im[off+j]
			for q := 0; q < nq; q++ {
				if j&(1<<q) == 0 {
					zrow[q] += p
				} else {
					zrow[q] -= p
				}
			}
		}
	}
}

// crossZRangeRef is the branchy oracle of crossZRange.
func crossZRangeRef(v, w *State, out []float64, lo, hi int) {
	dim, nq := v.Dim, v.NQ
	for smp := lo; smp < hi; smp++ {
		off := smp * dim
		zrow := out[smp*nq : (smp+1)*nq]
		for q := range zrow {
			zrow[q] = 0
		}
		for j := 0; j < dim; j++ {
			p := 2 * (v.Re[off+j]*w.Re[off+j] + v.Im[off+j]*w.Im[off+j])
			for q := 0; q < nq; q++ {
				if j&(1<<q) == 0 {
					zrow[q] += p
				} else {
					zrow[q] -= p
				}
			}
		}
	}
}

// buildWRangeRef is the qubit-by-qubit oracle of buildW over the n×dim
// weights of samples [lo, hi).
func buildWRangeRef(w, g []float64, nq, lo, hi int) {
	dim := 1 << nq
	for i := lo; i < hi; i++ {
		row := g[i*nq : (i+1)*nq]
		dst := w[i*dim : (i+1)*dim]
		for j := 0; j < dim; j++ {
			var sum float64
			for q := 0; q < nq; q++ {
				if j&(1<<q) == 0 {
					sum += row[q]
				} else {
					sum -= row[q]
				}
			}
			dst[j] = sum
		}
	}
}

// seedAdjointsRef is the oracle of seedAdjointsRange through the identity
// map: whole-batch weight buffers, adjoints cleared and then added into.
func seedAdjointsRef(ws *Workspace, lo, hi int, gz []float64, gztans [MaxTangents][]float64) {
	nq, dim := ws.nq, ws.val.Dim
	var wbuf [1 + MaxTangents][]float64
	if gz != nil {
		wbuf[0] = make([]float64, ws.n*dim)
		buildWRangeRef(wbuf[0], gz, nq, lo, hi)
	}
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] && gztans[k] != nil {
			wbuf[1+k] = make([]float64, ws.n*dim)
			buildWRangeRef(wbuf[1+k], gztans[k], nq, lo, hi)
		}
	}
	ws.lamV.resetRange(lo, hi, true)
	seed := func(lam *State, w []float64, src *State) {
		if w == nil {
			return
		}
		for i := lo * dim; i < hi*dim; i++ {
			lam.Re[i] += 2 * w[i] * src.Re[i]
			lam.Im[i] += 2 * w[i] * src.Im[i]
		}
	}
	seed(ws.lamV, wbuf[0], ws.val)
	for k := 0; k < MaxTangents; k++ {
		if !ws.active[k] {
			continue
		}
		ws.lamT[k].resetRange(lo, hi, true)
		seed(ws.lamV, wbuf[1+k], ws.tan[k])
		seed(ws.lamT[k], wbuf[1+k], ws.val)
	}
}

// readoutSrc lists src(j) for every basis state j of ro over dim states.
func readoutSrc(ro *basisWalk, dim int) []int {
	src := make([]int, dim)
	for j := 1; j < dim; j++ {
		src[j] = ro.next(src[j-1], j-1)
	}
	return src
}

// permuted returns the state the CNOTs of a frame would have produced:
// amplitude j of every sample is s's amplitude src[j].
func permuted(s *State, src []int) *State {
	c := s.clone()
	for smp := 0; smp < s.N; smp++ {
		off := smp * s.Dim
		for j, a := range src {
			c.Re[off+j], c.Im[off+j] = s.Re[off+a], s.Im[off+a]
		}
	}
	return c
}

// unpermuted undoes permuted.
func unpermuted(s *State, src []int) *State {
	c := s.clone()
	for smp := 0; smp < s.N; smp++ {
		off := smp * s.Dim
		for j, a := range src {
			c.Re[off+a], c.Im[off+a] = s.Re[off+j], s.Im[off+j]
		}
	}
	return c
}

// randomCNOTs draws up to eight CNOTs over nq ≥ 2 qubits.
func randomCNOTs(rng *rand.Rand, nq int) []Gate {
	gates := make([]Gate, 1+rng.Intn(8))
	for i := range gates {
		q := rng.Intn(nq)
		gates[i] = Gate{Kind: CNOT, Q: q, C: (q + 1 + rng.Intn(nq-1)) % nq, P: -1}
	}
	return gates
}

// TestReadoutMapMatchesCNOTs checks the incremental readout map against
// the CNOT sequence it stands for, applied to every basis index: the amplitude
// at j after the CNOTs is the amplitude at src(j) before them.
func TestReadoutMapMatchesCNOTs(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for nq := 2; nq <= 10; nq++ {
		for trial := 0; trial < 20; trial++ {
			gates := randomCNOTs(rng, nq)
			ro := newReadoutMap(gates)
			src := readoutSrc(&ro, 1<<nq)
			for old := range src {
				j := old
				for _, g := range gates {
					if j>>g.C&1 != 0 {
						j ^= 1 << g.Q
					}
				}
				if src[j] != old {
					t.Fatalf("nq=%d %v: src(%d) = %d, want %d", nq, gates, j, src[j], old)
				}
			}
		}
	}
	for j, a := range readoutSrc(&identityReadout, 1<<10) {
		if a != j {
			t.Fatalf("identity map: src(%d) = %d", j, a)
		}
	}
}

// TestReadoutKernelsMatchOracle pins the readout, the tangent readout, the
// prefix-built weights and the written-first seed to their branchy,
// clear-then-add oracles bit for bit (NaN counted as one class): nq 1–10,
// which crosses the eight-qubit register group, sample ranges starting at 0
// and past it, states and gradients seeded with signed zeros, subnormals,
// infinities and NaN, and random subsets of live tangents and nil
// gradients. Through a random CNOT frame the kernels must equal the oracles
// run on the explicitly permuted states, with the seeded adjoints permuted
// back. Every element outside [lo, hi) must be left as it was.
func TestReadoutKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for nq := 1; nq <= 10; nq++ {
		dim := 1 << nq
		for _, r := range u4Ranges {
			lo, hi := r[0], r[1]
			n := hi + 1
			for _, fold := range []bool{false, true} {
				if fold && nq < 2 {
					continue
				}
				ro := identityReadout
				ctx := fmt.Sprintf("nq=%d samples [%d,%d)", nq, lo, hi)
				if fold {
					gates := randomCNOTs(rng, nq)
					ro = newReadoutMap(gates)
					ctx += fmt.Sprintf(" frame of %v", gates)
				}
				src := readoutSrc(&ro, dim)
				edge := []float64{0, 0.05, 0.3}[rng.Intn(3)]
				cmp := func(name string, want, got []float64) {
					t.Helper()
					if i, ok := sameBitsNaN(want, got); !ok {
						t.Fatalf("%s edge=%v: %s[%d] = %v (%#x), oracle %v (%#x)", ctx, edge, name, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}

				// Forward readouts.
				val := u4State(rng, n, nq, edge)
				tan := u4State(rng, n, nq, edge)
				junk := u4Fill(rng, n*nq, 0.3)
				zGot, zWant := slices.Clone(junk), slices.Clone(junk)
				readoutRange(val, nil, zGot, lo, hi, &ro)
				expZRangeRef(permuted(val, src), lo, hi, zWant)
				cmp("z", zWant, zGot)
				zGot, zWant = slices.Clone(junk), slices.Clone(junk)
				readoutRange(val, tan, zGot, lo, hi, &ro)
				crossZRangeRef(permuted(val, src), permuted(tan, src), zWant, lo, hi)
				cmp("ztan", zWant, zGot)

				// Prefix-built weights.
				g := u4Fill(rng, n*nq, edge)
				wWant := make([]float64, n*dim)
				buildWRangeRef(wWant, g, nq, lo, hi)
				for smp := lo; smp < hi; smp++ {
					wp := u4Fill(rng, dim, 0.3)
					buildW(wp, g[smp*nq:(smp+1)*nq], &ro)
					w := make([]float64, dim)
					for j, a := range src {
						w[j] = wp[a]
					}
					cmp(fmt.Sprintf("w of sample %d", smp), wWant[smp*dim:(smp+1)*dim], w)
				}

				// Adjoint seed.
				got := NewWorkspace(n, nq)
				got.val = val
				got.lamV = u4State(rng, n, nq, 0.3)
				var gztans [MaxTangents][]float64
				withTans := rng.Intn(4) > 0
				for k := 0; k < MaxTangents; k++ {
					got.active[k] = rng.Intn(3) > 0
					got.tan[k] = u4State(rng, n, nq, edge)
					got.lamT[k] = u4State(rng, n, nq, 0.3)
					if withTans && rng.Intn(4) > 0 {
						gztans[k] = u4Fill(rng, n*nq, edge)
					}
				}
				var gz []float64
				if rng.Intn(4) > 0 {
					gz = u4Fill(rng, n*nq, edge)
				}
				want := NewWorkspace(n, nq)
				want.active = got.active
				want.val = permuted(val, src)
				want.lamV = permuted(got.lamV, src)
				for k := 0; k < MaxTangents; k++ {
					want.tan[k] = permuted(got.tan[k], src)
					want.lamT[k] = permuted(got.lamT[k], src)
				}
				seedAdjointsRange(got, &ro, lo, hi, gz, gztans)
				seedAdjointsRef(want, lo, hi, gz, gztans)
				lamV := unpermuted(want.lamV, src)
				cmp("λv re", lamV.Re, got.lamV.Re)
				cmp("λv im", lamV.Im, got.lamV.Im)
				for k := 0; k < MaxTangents; k++ {
					lamT := unpermuted(want.lamT[k], src)
					cmp(fmt.Sprintf("λt%d re", k), lamT.Re, got.lamT[k].Re)
					cmp(fmt.Sprintf("λt%d im", k), lamT.Im, got.lamT[k].Im)
				}
			}
		}
	}
}

// TestSeedKeepsPositiveZero pins the seed's first term to 0 + 2·w·ψ: a
// product that is −0 must land as +0, as it did when the term was added to
// a cleared adjoint.
func TestSeedKeepsPositiveZero(t *testing.T) {
	ws := NewWorkspace(1, 1)
	ws.val.Re[0], ws.val.Im[0] = math.Copysign(0, -1), 1
	ws.val.Re[1], ws.val.Im[1] = 1, math.Copysign(0, -1)
	seedAdjointsRange(ws, &identityReadout, 0, 1, []float64{0.5}, [MaxTangents][]float64{})
	for i, v := range []float64{ws.lamV.Re[0], ws.lamV.Re[1], ws.lamV.Im[0], ws.lamV.Im[1]} {
		if math.Signbit(v) && v == 0 {
			t.Errorf("seed element %d is −0, want +0", i)
		}
	}
}

// BenchmarkReadout times the readout layer at 4 and 7 qubits over a
// cache-resident block of samples and reports ns per sample: "z" is the ⟨Z⟩
// readout, "ztan" one tangent readout, and "seed" the basis weights plus
// the adjoint seed of the value and three tangent channels.
func BenchmarkReadout(b *testing.B) {
	for _, nq := range []int{4, 7} {
		rng := rand.New(rand.NewSource(517))
		n := 16
		ws := NewWorkspace(n, nq)
		ws.val = u4State(rng, n, nq, 0)
		var gztans [MaxTangents][]float64
		for k := 0; k < MaxTangents; k++ {
			ws.active[k] = true
			ws.tan[k] = u4State(rng, n, nq, 0)
			ws.lamT[k] = NewZeroState(n, nq)
			gztans[k] = u4Fill(rng, n*nq, 0)
		}
		gz := u4Fill(rng, n*nq, 0)
		z := make([]float64, n*nq)
		ro := &identityReadout
		rows := []struct {
			name string
			f    func()
		}{
			{"z", func() { readoutRange(ws.val, nil, z, 0, n, ro) }},
			{"ztan", func() { readoutRange(ws.val, ws.tan[0], z, 0, n, ro) }},
			{"seed", func() { seedAdjointsRange(ws, ro, 0, n, gz, gztans) }},
		}
		for _, r := range rows {
			b.Run(fmt.Sprintf("%s/nq=%d", r.name, nq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r.f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
			})
		}
	}
}
