package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randAngles(rng *rand.Rand, n, nq int) []float64 {
	a := make([]float64, n*nq)
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	return a
}

func randTheta(rng *rand.Rand, p int) []float64 {
	t := make([]float64, p)
	for i := range t {
		t[i] = rng.Float64() * 2 * math.Pi
	}
	return t
}

// TestParamCountsMatchTable1 pins the quantum parameter counts reported in
// the paper's Table 1 for 7 qubits, 4 layers.
func TestParamCountsMatchTable1(t *testing.T) {
	want := map[AnsatzKind]int{
		BasicEntangling:    84,
		StronglyEntangling: 84,
		CrossMesh:          196,
		CrossMesh2Rot:      224,
		CrossMeshCNOT:      84,
		NoEntanglement:     84,
	}
	//torq:allow maprange -- independent per-ansatz assertions
	for a, w := range want {
		c := a.Build(7, 4)
		if c.NumParams != w {
			t.Errorf("%v: %d params, want %d", a, c.NumParams, w)
		}
	}
}

// TestFastMatchesNaive verifies the sharded engine's forward pass and EvalZ
// (the naive engine) against the Table 2 dense simulators, per-gate and
// Kronecker-composed, for every ansatz.
func TestFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, a := range AllAnsatze {
		circ := a.Build(4, 2)
		n := 3
		angles := randAngles(rng, n, 4)
		theta := randTheta(rng, circ.NumParams)
		fast, _ := (&PQC{Circ: circ}).Forward(NewWorkspace(n, 4), angles, nil, theta)
		evalZ := EvalZ(circ, angles, theta, n)
		naive := (&NaiveSimulator{circ}).Run(angles, theta, n)
		kron := (&KronSimulator{circ}).Run(angles, theta, n)
		for _, c := range []struct {
			name string
			got  []float64
		}{{"sharded", fast}, {"EvalZ", evalZ}} {
			for i := range c.got {
				if math.Abs(c.got[i]-naive[i]) > 1e-10 {
					t.Errorf("%v: %s %v vs naive %v at %d", a, c.name, c.got[i], naive[i], i)
					break
				}
				if math.Abs(c.got[i]-kron[i]) > 1e-10 {
					t.Errorf("%v: %s %v vs kron %v at %d", a, c.name, c.got[i], kron[i], i)
					break
				}
			}
		}
	}
}

// TestPQCForwardMatchesEvalZ: the sharded engine's value channel must agree
// with EvalZ, which runs the naive engine.
func TestPQCForwardMatchesEvalZ(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, a := range AllAnsatze {
		circ := a.Build(4, 2)
		n := 5
		angles := randAngles(rng, n, 4)
		theta := randTheta(rng, circ.NumParams)
		ws := NewWorkspace(n, 4)
		z, _ := (&PQC{Circ: circ}).Forward(ws, angles, nil, theta)
		ref := EvalZ(circ, angles, theta, n)
		for i := range z {
			if math.Abs(z[i]-ref[i]) > 1e-12 {
				t.Fatalf("%v: PQC forward %v vs EvalZ %v at %d", a, z[i], ref[i], i)
			}
		}
	}
}

// TestPQCTangentsMatchFD: the tangent channels must equal the directional
// derivative of z with respect to the embedding angles.
func TestPQCTangentsMatchFD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, a := range []AnsatzKind{StronglyEntangling, CrossMesh, NoEntanglement} {
		circ := a.Build(3, 2)
		nq, n := 3, 4
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		// Random tangent directions per channel.
		tans := make([][]float64, 2)
		for k := range tans {
			tans[k] = randAngles(rng, n, nq)
		}
		ws := NewWorkspace(n, nq)
		_, ztans := (&PQC{Circ: circ}).Forward(ws, angles, tans, theta)

		const h = 1e-6
		for k := range tans {
			// FD along the direction: z(angles + h·dir) − z(angles − h·dir).
			ap := make([]float64, len(angles))
			am := make([]float64, len(angles))
			for i := range angles {
				ap[i] = angles[i] + h*tans[k][i]
				am[i] = angles[i] - h*tans[k][i]
			}
			zp := EvalZ(circ, ap, theta, n)
			zm := EvalZ(circ, am, theta, n)
			for i := range zp {
				num := (zp[i] - zm[i]) / (2 * h)
				if math.Abs(ztans[k][i]-num) > 1e-5*(1+math.Abs(num)) {
					t.Errorf("%v tan %d[%d]: %v vs fd %v", a, k, i, ztans[k][i], num)
				}
			}
		}
	}
}

// pqcLoss is a deterministic scalar functional of all PQC outputs (values
// and tangents), used to exercise every gradient path in Backward.
func pqcLoss(z []float64, ztans [][]float64, wz []float64, wt [][]float64) float64 {
	var L float64
	for i := range z {
		L += wz[i] * z[i]
	}
	for k, zt := range ztans {
		if zt == nil {
			continue
		}
		for i := range zt {
			L += wt[k][i] * zt[i]
		}
	}
	return L
}

// TestPQCBackwardMatchesFD is the decisive correctness check for the adjoint
// backward pass: gradients with respect to embedding angles, angle tangents
// and ansatz parameters must all match finite differences of a loss that
// mixes value and tangent outputs (the same structure as the PINN loss).
func TestPQCBackwardMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, a := range []AnsatzKind{StronglyEntangling, BasicEntangling, CrossMesh, CrossMesh2Rot, CrossMeshCNOT, NoEntanglement} {
		circ := a.Build(3, 2)
		nq, n := 3, 3
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

		wz := randAngles(rng, n, nq)
		wt := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

		eval := func() float64 {
			ws := NewWorkspace(n, nq)
			z, ztans := (&PQC{Circ: circ}).Forward(ws, angles, tans, theta)
			return pqcLoss(z, ztans, wz, wt)
		}

		ws := NewWorkspace(n, nq)
		z, ztans := (&PQC{Circ: circ}).Forward(ws, angles, tans, theta)
		gz := wz
		gztans := make([][]float64, MaxTangents)
		for k := range ztans {
			if ztans[k] != nil {
				gztans[k] = wt[k]
			}
		}
		dAngles := make([]float64, n*nq)
		dTans := [][]float64{make([]float64, n*nq), nil, make([]float64, n*nq)}
		dTheta := make([]float64, circ.NumParams)
		(&PQC{Circ: circ}).Backward(ws, gz, gztans, dAngles, dTans, dTheta)
		_ = z

		const h = 1e-6
		const tol = 2e-5
		check := func(name string, buf []float64, grad []float64) {
			for i := range buf {
				orig := buf[i]
				buf[i] = orig + h
				fp := eval()
				buf[i] = orig - h
				fm := eval()
				buf[i] = orig
				num := (fp - fm) / (2 * h)
				if math.Abs(grad[i]-num) > tol*(1+math.Abs(num)) {
					t.Errorf("%v %s[%d]: grad %v vs fd %v", a, name, i, grad[i], num)
				}
			}
		}
		check("angles", angles, dAngles)
		check("theta", theta, dTheta)
		check("tan0", tans[0], dTans[0])
		check("tan2", tans[2], dTans[2])
	}
}

// TestParameterShiftMatchesAdjoint: the hardware-compatible parameter-shift
// gradient must equal the adjoint gradient for the value readout on EVERY
// ansatz — in particular the CRZ-bearing ones (Cross-Mesh and
// Cross-Mesh-2-Rotations), whose controlled rotations have generator
// spectrum {0, ±1/2} and therefore require the four-term shift rule: the
// two-term rule applied to a CRZ parameter is simply a wrong gradient, which
// this parity pins at 1e-8 against the adjoint engine.
func TestParameterShiftMatchesAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, a := range AllAnsatze {
		circ := a.Build(4, 2)
		n, nq := 2, 4
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)

		shift := ParameterShiftGrad(circ, angles, theta, n)

		// Adjoint gradient of L = Σ z via Backward with unit upstream weights.
		ws := NewWorkspace(n, nq)
		(&PQC{Circ: circ}).Forward(ws, angles, nil, theta)
		gz := make([]float64, n*nq)
		for i := range gz {
			gz[i] = 1
		}
		dAngles := make([]float64, n*nq)
		dTheta := make([]float64, circ.NumParams)
		(&PQC{Circ: circ}).Backward(ws, gz, nil, dAngles, nil, dTheta)

		for p := 0; p < circ.NumParams; p++ {
			var want float64
			for i := range shift[p] {
				want += shift[p][i]
			}
			if math.Abs(dTheta[p]-want) > 1e-8*(1+math.Abs(want)) {
				t.Errorf("%v param %d: adjoint %v vs shift %v", a, p, dTheta[p], want)
			}
		}
	}
}

// TestNormPreservation: property test — all circuits are unitary, so the
// state norm stays 1 for arbitrary angles and parameters.
func TestNormPreservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := AllAnsatze[rng.Intn(len(AllAnsatze))]
		circ := a.Build(4, 1+rng.Intn(3))
		n := 1 + rng.Intn(4)
		angles := randAngles(rng, n, 4)
		theta := randTheta(rng, circ.NumParams)
		st := FinalState(circ, angles, theta, n)
		for _, norm := range st.Norm2() {
			if math.Abs(norm-1) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExpZBounds: property test — Pauli-Z expectations live in [−1, 1].
func TestExpZBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		circ := AllAnsatze[rng.Intn(len(AllAnsatze))].Build(5, 2)
		n := 1 + rng.Intn(3)
		angles := randAngles(rng, n, 5)
		theta := randTheta(rng, circ.NumParams)
		for _, z := range EvalZ(circ, angles, theta, n) {
			if z < -1-1e-12 || z > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMeyerWallach: closed-form anchors — product states have Q = 0, a Bell
// pair embedded in 2 qubits has Q = 1.
func TestMeyerWallach(t *testing.T) {
	// Product state: |00⟩.
	st := NewState(1, 2)
	if q := MeyerWallach(st); math.Abs(q) > 1e-12 {
		t.Errorf("product state Q = %v, want 0", q)
	}
	// Bell state (|00⟩+|11⟩)/√2.
	bell := NewZeroState(1, 2)
	bell.Re[0] = 1 / math.Sqrt2
	bell.Re[3] = 1 / math.Sqrt2
	if q := MeyerWallach(bell); math.Abs(q-1) > 1e-12 {
		t.Errorf("Bell state Q = %v, want 1", q)
	}
	// No-entanglement ansatz keeps Q = 0 from |0…0⟩.
	circ := NoEntanglement.Build(4, 3)
	rng := rand.New(rand.NewSource(28))
	angles := randAngles(rng, 3, 4)
	theta := randTheta(rng, circ.NumParams)
	if q := MeyerWallach(FinalState(circ, angles, theta, 3)); math.Abs(q) > 1e-10 {
		t.Errorf("no-entanglement ansatz Q = %v, want 0", q)
	}
}

// TestFinalStateMatchesNaiveState: the compiled program leaves its state in
// the basis frame of the CNOTs it did not execute, and FinalState reads it
// back through the program's readout map. Its amplitudes, and the
// Meyer–Wallach measure (which a basis permutation changes), must equal the
// naive engine's dense state on ansätze whose final frame is not the
// identity, with and without re-uploading.
func TestFinalStateMatchesNaiveState(t *testing.T) {
	rng := rand.New(rand.NewSource(1013))
	for _, a := range []AnsatzKind{StronglyEntangling, CrossMeshCNOT, BasicEntangling} {
		for nq := 3; nq <= 5; nq++ {
			for _, reup := range []bool{false, true} {
				circ := a.Build(nq, 2)
				if reup {
					circ = circ.WithReupload()
				}
				name := fmt.Sprintf("%v %dq reupload=%v", a, nq, reup)
				src := readoutSrc(&CompileProgram(circ).readout, 1<<nq)
				moved := false
				for j, s := range src {
					moved = moved || s != j
				}
				if !moved {
					t.Fatalf("%s: test premise broken, the final frame is the identity", name)
				}
				n := 3
				angles := randAngles(rng, n, nq)
				theta := randTheta(rng, circ.NumParams)
				got := FinalState(circ, angles, theta, n)
				ws := NewWorkspace(n, nq)
				naiveEngine{}.Forward(&PQC{Circ: circ, Eng: EngineNaive}, ws, angles, nil, theta)
				want := ws.val
				if d := max(maxAbsDiff(want.Re, got.Re), maxAbsDiff(want.Im, got.Im)); d > 1e-12 {
					t.Errorf("%s: FinalState amplitudes differ from the naive state by %v", name, d)
				}
				if d := math.Abs(MeyerWallach(got) - MeyerWallach(want)); d > 1e-12 {
					t.Errorf("%s: Meyer–Wallach %v, naive state %v", name, MeyerWallach(got), MeyerWallach(want))
				}
			}
		}
	}
}

// TestScalingEndpoints pins the closed-form behaviour shown in the paper's
// Fig. 3a: with ⟨Z⟩ = cos(θ) after an RX embedding, scale_acos is the
// identity on the input and scale_asin is a sign flip.
func TestScalingEndpoints(t *testing.T) {
	circ := NoEntanglement.Build(1, 0) // embedding only
	for _, a := range []float64{-0.9, -0.4, 0, 0.3, 0.8} {
		zAcos := EvalZ(circ, []float64{ScaleAcos.Apply(a)}, nil, 1)[0]
		if math.Abs(zAcos-a) > 1e-12 {
			t.Errorf("scale_acos: ⟨Z⟩ = %v, want %v", zAcos, a)
		}
		zAsin := EvalZ(circ, []float64{ScaleAsin.Apply(a)}, nil, 1)[0]
		if math.Abs(zAsin+a) > 1e-12 {
			t.Errorf("scale_asin: ⟨Z⟩ = %v, want %v", zAsin, -a)
		}
	}
	// scale_bias maps [−1,1] to [0,π]: ⟨Z⟩ = cos((a+1)π/2), so a=0 → 0.
	if z := EvalZ(circ, []float64{ScaleBias.Apply(0)}, nil, 1)[0]; math.Abs(z) > 1e-12 {
		t.Errorf("scale_bias(0): ⟨Z⟩ = %v, want 0", z)
	}
}

// TestStronglyEntanglingGapPattern: layer ℓ uses control-target gap ℓ+1.
func TestStronglyEntanglingGapPattern(t *testing.T) {
	c := StronglyEntangling.Build(7, 4)
	var cnots []Gate
	for _, g := range c.Gates {
		if g.Kind == CNOT {
			cnots = append(cnots, g)
		}
	}
	if len(cnots) != 28 {
		t.Fatalf("expected 28 CNOTs, got %d", len(cnots))
	}
	for l := 0; l < 4; l++ {
		gap := l%6 + 1
		for q := 0; q < 7; q++ {
			g := cnots[l*7+q]
			if g.C != q || g.Q != (q+gap)%7 {
				t.Errorf("layer %d: CNOT(%d→%d), want (%d→%d)", l, g.C, g.Q, q, (q+gap)%7)
			}
		}
	}
}

// TestDrawContainsAllGates: the Fig. 4 renderer mentions every qubit,
// parameter index and the measurement column.
func TestDrawContainsAllGates(t *testing.T) {
	var sb strings.Builder
	circ := CrossMesh.Build(3, 1)
	Draw(&sb, circ)
	out := sb.String()
	for q := 0; q < 3; q++ {
		if !strings.Contains(out, fmt.Sprintf("q%d:", q)) {
			t.Fatalf("missing qubit %d:\n%s", q, out)
		}
	}
	if !strings.Contains(out, "⟨Z⟩") || !strings.Contains(out, "RX(x0)") {
		t.Fatalf("missing readout or embedding:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("θ%d", circ.NumParams-1)) {
		t.Fatalf("missing last parameter:\n%s", out)
	}
}

// TestMemoryPerPointOrdering: the Table 2 memory model must rank
// adjoint < naive < kron once the dense gate matrix (dim²) outgrows the
// handful of statevectors the adjoint method keeps (nq ≥ 4).
func TestMemoryPerPointOrdering(t *testing.T) {
	for nq := 4; nq <= 10; nq++ {
		adj, naive, kron := MemoryPerPoint(nq, 4)
		if !(adj < naive && naive < kron) {
			t.Fatalf("nq=%d: adjoint %d, naive %d, kron %d", nq, adj, naive, kron)
		}
	}
}

// reuploadRef computes the re-uploading forward pass the obvious way:
// (embedding, layer) repeated, one dense matrix per gate and sample.
func reuploadRef(circ *Circuit, angles, theta []float64, n int) []float64 {
	nq := circ.NumQubits
	out := make([]float64, n*nq)
	for i := 0; i < n; i++ {
		v := make(cvec, 1<<nq)
		v[0] = 1
		for l := 0; l < circ.Layers; l++ {
			for q := 0; q < nq; q++ {
				v = embedMatrix(q, angles[i*nq+q], nq).matvec(v)
			}
			for _, g := range circ.LayerSlice(l) {
				v = expand(g, theta, nq).matvec(v)
			}
		}
		writeExpZ(v, nq, out[i*nq:(i+1)*nq])
	}
	return out
}

// TestReuploadForwardMatchesReference: the PQC runner with Reupload set
// reproduces the obvious (embedding, layer)* composition, and so do EvalZ
// (the naive engine) and FinalState's readout, on every ansatz and on every
// re-uploading circuit of the compiler corpus.
func TestReuploadForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var circs []*Circuit
	for _, a := range AllAnsatze {
		circs = append(circs, a.Build(3, 3).WithReupload())
	}
	for _, c := range compilerCorpus() {
		if c.Reupload {
			circs = append(circs, c)
		}
	}
	for _, circ := range circs {
		n, nq := 4, circ.NumQubits
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		ws := NewWorkspace(n, nq)
		z, _ := (&PQC{Circ: circ}).Forward(ws, angles, nil, theta)
		fromState := make([]float64, n*nq)
		FinalState(circ, angles, theta, n).ExpZ(fromState)
		for _, c := range []struct {
			name string
			got  []float64
		}{
			{"reference", reuploadRef(circ, angles, theta, n)},
			{"EvalZ", EvalZ(circ, angles, theta, n)},
			{"FinalState", fromState},
		} {
			if d := maxAbsDiff(z, c.got); d > 1e-12 {
				t.Errorf("%s: sharded Forward vs %s differ by %v", circ.Name, c.name, d)
			}
		}
	}
}

// TestReuploadBackwardMatchesFD: the full adjoint gradient (angles, angle
// tangents, ansatz parameters) with data re-uploading enabled must match
// finite differences — every embedding repetition contributes coupling and
// second-derivative terms.
func TestReuploadBackwardMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, a := range []AnsatzKind{StronglyEntangling, CrossMesh2Rot, NoEntanglement} {
		circ := a.Build(3, 2).WithReupload()
		nq, n := 3, 3
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		wz := randAngles(rng, n, nq)
		wt := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

		eval := func() float64 {
			ws := NewWorkspace(n, nq)
			z, ztans := (&PQC{Circ: circ}).Forward(ws, angles, tans, theta)
			return pqcLoss(z, ztans, wz, wt)
		}

		ws := NewWorkspace(n, nq)
		_, ztans := (&PQC{Circ: circ}).Forward(ws, angles, tans, theta)
		gztans := make([][]float64, MaxTangents)
		for k := range ztans {
			if ztans[k] != nil {
				gztans[k] = wt[k]
			}
		}
		dAngles := make([]float64, n*nq)
		dTans := [][]float64{make([]float64, n*nq), nil, make([]float64, n*nq)}
		dTheta := make([]float64, circ.NumParams)
		(&PQC{Circ: circ}).Backward(ws, wz, gztans, dAngles, dTans, dTheta)

		const h = 1e-6
		const tol = 5e-5
		check := func(name string, buf []float64, grad []float64) {
			for i := range buf {
				orig := buf[i]
				buf[i] = orig + h
				fp := eval()
				buf[i] = orig - h
				fm := eval()
				buf[i] = orig
				num := (fp - fm) / (2 * h)
				if math.Abs(grad[i]-num) > tol*(1+math.Abs(num)) {
					t.Errorf("%v %s[%d]: grad %v vs fd %v", a, name, i, grad[i], num)
				}
			}
		}
		check("angles", angles, dAngles)
		check("theta", theta, dTheta)
		check("tan0", tans[0], dTans[0])
		check("tan2", tans[2], dTans[2])
	}
}

// TestLayerSlicePartition: layer slices tile the gate list exactly.
func TestLayerSlicePartition(t *testing.T) {
	for _, a := range AllAnsatze {
		circ := a.Build(5, 3)
		total := 0
		for l := 0; l < circ.Layers; l++ {
			total += len(circ.LayerSlice(l))
		}
		if total != len(circ.Gates) {
			t.Fatalf("%v: layer slices cover %d of %d gates", a, total, len(circ.Gates))
		}
	}
}
