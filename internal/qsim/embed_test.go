package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
)

// edgeAngles draws n×nq embedding angles, half of them from the edge set
// {0, ±π/2, ±π} where a factor's cosine or sine vanishes or the two
// coincide in magnitude, the rest uniform in [−π, π].
func edgeAngles(rng *rand.Rand, n, nq int) []float64 {
	edges := []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi}
	a := make([]float64, n*nq)
	for i := range a {
		if rng.Intn(2) == 0 {
			a[i] = edges[rng.Intn(len(edges))]
		} else {
			a[i] = (2*rng.Float64() - 1) * math.Pi
		}
	}
	return a
}

// embedWorkspace builds a workspace holding the given angles and the
// tangent channels named by the bits of mask, with seeded angle tangents.
func embedWorkspace(rng *rand.Rand, n, nq int, angles []float64, mask int) *Workspace {
	ws := NewWorkspace(n, nq)
	copy(ws.angles, angles)
	for k := 0; k < MaxTangents; k++ {
		ws.active[k] = mask&(1<<k) != 0
		if ws.active[k] {
			ws.ensureTangent(k)
			copy(ws.angleTans[k], randAngles(rng, n, nq))
		}
	}
	return ws
}

// identityWalks returns an opEmbedAll's per-qubit walks under the identity
// frame, the first embedding's frame.
func identityWalks(nq int) []groupWalk {
	var w []groupWalk
	for _, v := range identityFrame(nq) {
		w = append(w, newGroupWalk(nq, v))
	}
	return w
}

// embedRun is one embedding kernel's forward states and the gradients its
// adjoint produced from the given seeds.
type embedRun struct {
	val        *State
	tan        [MaxTangents]*State
	dAngles    []float64
	dAngleTans [MaxTangents][]float64
}

// runEmbedKernel runs one embedding kernel pair (opEmbedProd with no folded
// gate when prod, else opEmbedAll from |0…0⟩) forward, then its adjoint
// from copies of lamV and lamT.
func runEmbedKernel(ws *Workspace, prod bool, lamV *State, lamT [MaxTangents]*State) embedRun {
	n := ws.n
	bare := &instr{op: opEmbedProd}
	if prod {
		embedProdRange(ws, embedWall(bare, nil, ws.nq), 0, n)
	} else {
		ws.val.resetRange(0, n, false)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				ws.tan[k].resetRange(0, n, true)
			}
		}
		embedAllRange(ws, identityWalks(ws.nq), 0, n)
	}
	var r embedRun
	r.val = NewZeroState(n, ws.nq)
	r.val.CopyFrom(ws.val)
	ws.lamV.CopyFrom(lamV)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			r.tan[k] = NewZeroState(n, ws.nq)
			r.tan[k].CopyFrom(ws.tan[k])
			ws.lamT[k].CopyFrom(lamT[k])
			r.dAngleTans[k] = make([]float64, n*ws.nq)
		}
	}
	r.dAngles = make([]float64, n*ws.nq)
	dat := make([][]float64, MaxTangents)
	for k := range dat {
		dat[k] = r.dAngleTans[k]
	}
	if prod {
		reverseEmbedProdRange(ws, bare, nil, nil, 0, n, r.dAngles, dat, bwdScratch{})
	} else {
		reverseEmbedAllRange(ws, identityWalks(ws.nq), 0, n, r.dAngles, dat)
	}
	return r
}

// TestEmbedProdMatchesEmbedAll pins the product-state embedding kernels to
// the qubit-by-qubit RX kernels they replace for the first block: the value
// state and every tangent state, and the three gradient outputs of the
// adjoint — dφ from λv alone, dφ from λt alone (the second-derivative and
// cross-qubit tangent coupling), and dφ̇ — over every subset of the three
// tangent channels, 1 to 10 qubits, and angles that hit the edge set
// {0, ±π/2, ±π}. The two kernels sum the same terms in different orders,
// so each difference is bounded in units of ε times the magnitude of what
// is summed: the largest amplitude for the states, and the per-sample
// Σ|λ|·(1 + Σ|φ̇|) for the gradients. It runs on the AVX2 and the pure-Go
// step kernels.
func TestEmbedProdMatchesEmbedAll(t *testing.T) { onBothPaths(t, testEmbedProdMatchesEmbedAll) }

func testEmbedProdMatchesEmbedAll(t *testing.T) {
	const ulps = 8
	eps := math.Nextafter(1, 2) - 1
	rng := rand.New(rand.NewSource(517))
	for nq := 1; nq <= 10; nq++ {
		n := 3
		angles := edgeAngles(rng, n, nq)
		for mask := 0; mask < 1<<MaxTangents; mask++ {
			ws := embedWorkspace(rng, n, nq, angles, mask)
			lamV := u4State(rng, n, nq, 0)
			var lamT, zeroT [MaxTangents]*State
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					lamT[k] = u4State(rng, n, nq, 0)
					zeroT[k] = NewZeroState(n, nq)
				}
			}
			zeroV := NewZeroState(n, nq)
			// Per-sample gradient scale.
			dim := 1 << nq
			gscale := make([]float64, n)
			for smp := 0; smp < n; smp++ {
				var lam, tan float64
				for j := smp * dim; j < (smp+1)*dim; j++ {
					lam += math.Abs(lamV.Re[j]) + math.Abs(lamV.Im[j])
				}
				for k := 0; k < MaxTangents; k++ {
					if !ws.active[k] {
						continue
					}
					for j := smp * dim; j < (smp+1)*dim; j++ {
						lam += math.Abs(lamT[k].Re[j]) + math.Abs(lamT[k].Im[j])
					}
					for q := 0; q < nq; q++ {
						tan += math.Abs(ws.angleTans[k][smp*nq+q])
					}
				}
				gscale[smp] = lam * (1 + tan)
			}
			name := fmt.Sprintf("nq=%d tangents=%03b", nq, mask)
			checkStates := func(what string, want, have *State) {
				var scale, worst float64
				for j := range want.Re {
					scale = math.Max(scale, math.Max(math.Abs(want.Re[j]), math.Abs(want.Im[j])))
				}
				for j := range want.Re {
					worst = math.Max(worst, math.Max(math.Abs(want.Re[j]-have.Re[j]), math.Abs(want.Im[j]-have.Im[j])))
				}
				if worst > ulps*eps*float64(nq)*math.Max(scale, eps) {
					t.Errorf("%s: %s differs by %v (scale %v)", name, what, worst, scale)
				}
			}
			checkGrads := func(what string, want, have []float64) {
				for i := range want {
					if d := math.Abs(want[i] - have[i]); d > ulps*eps*gscale[i/nq] {
						t.Errorf("%s: %s[%d] = %v, want %v (diff %v, scale %v)", name, what, i, have[i], want[i], d, gscale[i/nq])
					}
				}
			}
			for _, seeds := range []struct {
				what string
				v    *State
				t    [MaxTangents]*State
			}{{"value", lamV, zeroT}, {"tangent", zeroV, lamT}, {"both", lamV, lamT}} {
				want := runEmbedKernel(ws, false, seeds.v, seeds.t)
				have := runEmbedKernel(ws, true, seeds.v, seeds.t)
				checkStates("value state", want.val, have.val)
				checkGrads("dφ from "+seeds.what+" seeds", want.dAngles, have.dAngles)
				for k := 0; k < MaxTangents; k++ {
					if ws.active[k] {
						checkStates(fmt.Sprintf("tangent %d", k), want.tan[k], have.tan[k])
						checkGrads(fmt.Sprintf("dφ̇[%d] from %s seeds", k, seeds.what), want.dAngleTans[k], have.dAngleTans[k])
					}
				}
			}
		}
	}
}

// TestEmbedKernelsMatchOracle pins the four opEmbedProd step kernels'
// AVX2 assembly to their pure-Go loops bit for bit: levels of 4, 8 and 64
// amplitudes, the in-place forms the forward uses (p0 = y, t0 = x), inputs,
// general complex factors u and du (every component non-zero, as a folded
// W_q makes them) and the angle tangent seeded with signed zeros,
// subnormals, infinities and NaN, and lane accumulators that start
// non-zero. NaN counts as one class.
func TestEmbedKernelsMatchOracle(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(v bool) { useSIMD = v }(useSIMD)
	rng := rand.New(rand.NewSource(517))
	for _, n := range []int{4, 8, 64} {
		for _, inPlace := range []bool{false, true} {
			for _, edge := range []float64{0, 0.05} {
				ctx := fmt.Sprintf("n=%d inPlace=%v edge=%v", n, inPlace, edge)
				in := make([][]float64, 10)
				for i := range in {
					in[i] = u4Fill(rng, n, edge)
				}
				var kv, kd [4]float64
				copy(kv[:], u4Fill(rng, 4, edge))
				copy(kd[:], u4Fill(rng, 4, edge))
				d := u4Fill(rng, 1, edge)[0]
				var acc [3][16]float64
				for i := range acc {
					copy(acc[i][:], u4Fill(rng, 16, edge))
				}
				run := func(simd bool) ([][]float64, [3][16]float64) {
					useSIMD = simd
					s := make([][]float64, len(in))
					for i := range in {
						s[i] = slices.Clone(in[i])
					}
					g := acc
					if inPlace {
						embedValStep(s[0], s[1], s[0], s[1], s[2], s[3], &kv)
						embedTanStep(s[4], s[5], s[0], s[1], s[4], s[5], s[6], s[7], &kv, &kd, d)
					} else {
						embedValStep(s[0], s[1], s[2], s[3], s[4], s[5], &kv)
						embedTanStep(s[6], s[7], s[8], s[9], s[0], s[1], s[2], s[3], &kv, &kd, d)
					}
					embedRevValStep(s[0], s[1], s[2], s[3], s[4], s[5], &kv, &g[0])
					embedRevTanStep(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], &kv, &kd, d, &g[1], &g[2])
					return s, g
				}
				want, wg := run(false)
				got, gg := run(true)
				cmp := func(name string, w, g []float64) {
					t.Helper()
					if i, ok := sameBitsNaN(w, g); !ok {
						t.Fatalf("%s: %s[%d] = %v (%#x) on simd, %v (%#x) on go", ctx, name, i,
							g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
					}
				}
				for i := range want {
					cmp(fmt.Sprintf("slice %d", i), want[i], got[i])
				}
				cmp("value lanes", wg[0][:], gg[0][:])
				cmp("tangent x lanes", wg[1][:], gg[1][:])
				cmp("tangent y lanes", wg[2][:], gg[2][:])
			}
		}
	}
}

// TestProgramEmbedOpcodes pins where the compiler places the two embedding
// forms: every program starts with exactly one opEmbedProd, and a
// re-uploading program follows each later layer's embedding with an
// opEmbedAll, since those blocks rotate an already entangled state.
func TestProgramEmbedOpcodes(t *testing.T) {
	for _, a := range AllAnsatze {
		for _, shape := range [][2]int{{4, 2}, {7, 4}} {
			for _, reup := range []bool{false, true} {
				circ := a.Build(shape[0], shape[1])
				wantAll := 0
				if reup {
					circ = circ.WithReupload()
					wantAll = shape[1] - 1
				}
				prog := CompileProgram(circ)
				if prog.ins[0].op != opEmbedProd {
					t.Errorf("%v %v reupload=%v: first instruction op=%d, want opEmbedProd", a, shape, reup, prog.ins[0].op)
				}
				prods, alls := 0, 0
				for _, in := range prog.ins {
					switch in.op {
					case opEmbedProd:
						prods++
					case opEmbedAll:
						alls++
					}
				}
				if prods != 1 || alls != wantAll {
					t.Errorf("%v %v reupload=%v: %d opEmbedProd and %d opEmbedAll, want 1 and %d", a, shape, reup, prods, alls, wantAll)
				}
				if got := prog.reembeds(); got != (wantAll > 0) {
					t.Errorf("%v %v reupload=%v: reembeds() = %v", a, shape, reup, got)
				}
			}
		}
	}
}

// TestEmbeddingShiftRuleMatchesAdjoint checks the adjoint's embedding-angle
// gradients against the two-term RX shift rule. Without re-uploading each
// angle enters exactly one RX gate, whose generator X/2 has spectrum ±1/2,
// so ∂f/∂φ = (f(φ + π/2) − f(φ − π/2))/2 holds exactly for
// f = Σ gz·⟨Z⟩. f is evaluated by EvalZ, which runs the naive engine and
// shares no code with the compiled program.
func TestEmbeddingShiftRuleMatchesAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for _, a := range AllAnsatze {
		for _, nq := range []int{4, 5} {
			circ := a.Build(nq, 2)
			n := 3
			angles := edgeAngles(rng, n, nq)
			theta := randTheta(rng, circ.NumParams)
			gz := randAngles(rng, n, nq)
			got := runEngine(EngineSharded, circ, n, angles, nil, theta, gz, nil)
			shifted := append([]float64(nil), angles...)
			f := func(i int, d float64) float64 {
				shifted[i] = angles[i] + d
				z := EvalZ(circ, shifted, theta, n)
				shifted[i] = angles[i]
				var s float64
				for j, v := range z {
					s += gz[j] * v
				}
				return s
			}
			for i := range angles {
				want := (f(i, math.Pi/2) - f(i, -math.Pi/2)) / 2
				if d := math.Abs(got.dAngles[i] - want); d > 1e-10*(1+math.Abs(want)) {
					t.Errorf("%v %dq: dAngles[%d] (φ=%v) = %v, shift rule %v", a, nq, i, angles[i], got.dAngles[i], want)
				}
			}
		}
	}
}

// TestEmbeddingGradsMatchCentralDifferences checks dAngles and dAngleTans
// against central differences of the full objective
// f = Σ gz·z + Σ_k gztans_k·ztans_k, evaluated with the naive dense
// engine's forward. It covers re-uploading circuits (where an angle enters
// one RX per layer), 1 to 6 qubits, a random subset of tangent channels per
// circuit, and angles on the edge set {0, ±π/2, ±π}. dAngles with tangents
// live includes the second-derivative coupling the readout tangents put on
// the angles.
func TestEmbeddingGradsMatchCentralDifferences(t *testing.T) {
	const h = 1e-5
	rng := rand.New(rand.NewSource(517))
	for nq := 1; nq <= 6; nq++ {
		var circs []*Circuit
		if nq == 1 {
			circs = append(circs, specCircuit("one-qubit", 1, true,
				[]Gate{{RY, 0, -1, 0}, {RZ, 0, -1, 0}}, []Gate{{RX, 0, -1, 0}}))
		} else {
			circs = append(circs, StronglyEntangling.Build(nq, 2).WithReupload(),
				randomCircuit(rng, nq, true), randomCircuit(rng, nq, false))
		}
		for _, circ := range circs {
			n := 2
			mask := 1 + rng.Intn(1<<MaxTangents-1)
			angles := edgeAngles(rng, n, nq)
			tans := make([][]float64, MaxTangents)
			gztans := make([][]float64, MaxTangents)
			for k := 0; k < MaxTangents; k++ {
				if mask&(1<<k) != 0 {
					tans[k] = randAngles(rng, n, nq)
					gztans[k] = randAngles(rng, n, nq)
				}
			}
			theta := randTheta(rng, circ.NumParams)
			gz := randAngles(rng, n, nq)
			got := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)

			naive := &PQC{Circ: circ, Eng: EngineNaive}
			ws := NewWorkspace(n, nq)
			f := func(angles []float64, tans [][]float64) float64 {
				z, ztans := naive.Forward(ws, angles, tans, theta)
				var s float64
				for j, v := range z {
					s += gz[j] * v
				}
				for k := range ztans {
					for j, v := range ztans[k] {
						s += gztans[k][j] * v
					}
				}
				return s
			}
			name := fmt.Sprintf("%s %dq tangents=%03b", circ.Name, nq, mask)
			check := func(what string, i int, have, want float64) {
				if d := math.Abs(have - want); d > 1e-7*(1+math.Abs(want)) {
					t.Errorf("%s: %s[%d] = %v, central difference %v", name, what, i, have, want)
				}
			}
			shifted := append([]float64(nil), angles...)
			for i := range angles {
				shifted[i] = angles[i] + h
				fp := f(shifted, tans)
				shifted[i] = angles[i] - h
				fm := f(shifted, tans)
				shifted[i] = angles[i]
				check("dAngles", i, got.dAngles[i], (fp-fm)/(2*h))
			}
			for k := range tans {
				if tans[k] == nil {
					continue
				}
				tk := append([]float64(nil), tans[k]...)
				moved := append([][]float64(nil), tans...)
				moved[k] = tk
				for i := range tk {
					tk[i] = tans[k][i] + h
					fp := f(angles, moved)
					tk[i] = tans[k][i] - h
					fm := f(angles, moved)
					tk[i] = tans[k][i]
					check(fmt.Sprintf("dAngleTans[%d]", k), i, got.dTans[k][i], (fp-fm)/(2*h))
				}
			}
		}
	}
}

// benchEmbed times one embedding kernel's forward plus adjoint at 4 and 7
// qubits with all three tangent channels live, over a cache-resident block
// of samples, and reports ns per sample. The opEmbedProd row runs the form
// programs ship: the Strongly-Entangling first layer's Rot folded on every
// qubit (a random, non-identity W_q each), its gradients contracted into
// dθ. Each iteration also restores the adjoint seeds, which both adjoints
// consume; that copy is the same in both rows.
func benchEmbed(b *testing.B, prod bool) {
	for _, nq := range []int{4, 7} {
		b.Run(fmt.Sprintf("nq=%d", nq), func(b *testing.B) {
			rng := rand.New(rand.NewSource(517))
			n := 16
			ws := embedWorkspace(rng, n, nq, edgeAngles(rng, n, nq), 1<<MaxTangents-1)
			seeds := make([]*State, 1+MaxTangents)
			for i := range seeds {
				seeds[i] = u4State(rng, n, nq, 0)
			}
			dAngles := make([]float64, n*nq)
			dat := make([][]float64, MaxTangents)
			for k := range dat {
				dat[k] = make([]float64, n*nq)
			}
			prog := CompileProgram(StronglyEntangling.Build(nq, 1))
			theta := randTheta(rng, prog.circ.NumParams)
			coeff := make([]float64, prog.ncoef)
			dcoef := make([]float64, prog.nderiv)
			prog.FillCoeffs(theta, coeff)
			prog.FillDerivCoeffs(theta, dcoef)
			in := &prog.ins[0]
			if len(in.params) != 3*nq {
				b.Fatalf("first instruction folded %d parameters, want %d", len(in.params), 3*nq)
			}
			sc := bwdScratch{dth: make([]float64, len(theta))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.lamV.CopyFrom(seeds[0])
				for k := 0; k < MaxTangents; k++ {
					ws.lamT[k].CopyFrom(seeds[1+k])
				}
				if prod {
					embedProdRange(ws, embedWall(in, coeff, nq), 0, n)
					reverseEmbedProdRange(ws, in, coeff, dcoef, 0, n, dAngles, dat, sc)
				} else {
					ws.val.resetRange(0, n, false)
					for k := 0; k < MaxTangents; k++ {
						ws.tan[k].resetRange(0, n, true)
					}
					embedAllRange(ws, identityWalks(ws.nq), 0, n)
					reverseEmbedAllRange(ws, identityWalks(ws.nq), 0, n, dAngles, dat)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}

// BenchmarkEmbedProd times the product-state first embedding (opEmbedProd)
// with a folded rotation wall.
func BenchmarkEmbedProd(b *testing.B) { benchEmbed(b, true) }

// BenchmarkEmbedAll times the qubit-by-qubit RX embedding (opEmbedAll) that
// re-upload blocks still run, from |0…0⟩ as the first block used to.
func BenchmarkEmbedAll(b *testing.B) { benchEmbed(b, false) }
