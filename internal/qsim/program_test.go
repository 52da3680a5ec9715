package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
)

// progNetMatrix composes the dense net unitary of a compiled program's
// gates: the folded ⊗_q W_q of its opEmbedProd (the rotations it applies
// after the embedding proper), then its non-embedding instructions via the
// naive-oracle instrMatrix expansion, then the permutation its readout map
// (the frame its CNOTs leave) reads the final state through.
func progNetMatrix(p *Program, coeff []float64) cmat {
	nq := p.circ.NumQubits
	dim := 1 << nq
	u := eye(dim)
	for _, in := range p.ins {
		switch in.op {
		case opEmbedAll:
			continue
		case opEmbedProd:
			w := embedWall(&in, coeff, nq)
			for q := 0; q < nq; q++ {
				m := newCmat(dim)
				x := w[8*q : 8*q+8]
				place1Q(m, q, [2][2]complex128{
					{complex(x[0], x[1]), complex(x[2], x[3])},
					{complex(x[4], x[5]), complex(x[6], x[7])},
				})
				u = m.mul(u)
			}
			continue
		}
		u = p.instrMatrix(in, coeff).mul(u)
	}
	perm := newCmat(dim)
	for j, src := 0, 0; j < dim; j++ {
		perm.set(j, src, 1)
		src = p.readout.next(src, j)
	}
	return perm.mul(u)
}

// specCircuit builds a circuit from a per-layer gate list, numbering every
// parametrized gate's P in order (the gates' own P fields are ignored).
func specCircuit(name string, nq int, reupload bool, layers ...[]Gate) *Circuit {
	var gates []Gate
	var starts []int
	np := 0
	for _, layer := range layers {
		starts = append(starts, len(gates))
		for _, g := range layer {
			g.P = -1
			if g.Kind != CNOT {
				g.P = np
				np++
			}
			gates = append(gates, g)
		}
	}
	return NewCircuitFromSpec(name, nq, len(layers), gates, np, reupload, starts)
}

// randomCircuit draws a layered circuit over nq qubits from RX/RY/RZ/CNOT/CRZ.
// Gate kinds and qubits come only from rng, so a seed names a circuit.
func randomCircuit(rng *rand.Rand, nq int, reupload bool) *Circuit {
	layers := make([][]Gate, 1+rng.Intn(3))
	for l := range layers {
		for i := 2 + rng.Intn(10); i > 0; i-- {
			kind := GateKind(rng.Intn(5))
			g := Gate{Kind: kind, Q: rng.Intn(nq), C: -1}
			if kind == CNOT || kind == CRZ {
				g.C = (g.Q + 1 + rng.Intn(nq-1)) % nq
			}
			layers[l] = append(layers[l], g)
		}
	}
	return specCircuit(fmt.Sprintf("random-%dq", nq), nq, reupload, layers...)
}

// compilerCorpus is the differential-testing corpus for the compiler: the
// hand-picked circuits first — each one shaped to reach a lowering the
// built-in ansätze never take (a lone RZ chain, a lone CRZ chain, a
// one-qubit opU2, single-parameter and dense 4×4 blocks, paired
// single-qubit runs, a rotation-dense three-qubit block, rotations folded
// into the embedding on some qubits) — then a seeded random fill over 3–5
// qubits, with and without re-uploading. A circuit that should reach a
// pair block starts with a two-qubit gate, since every single-qubit gate in
// front of the first one folds into the embedding.
func compilerCorpus() []*Circuit {
	rx := func(q int) Gate { return Gate{RX, q, -1, 0} }
	ry := func(q int) Gate { return Gate{RY, q, -1, 0} }
	rz := func(q int) Gate { return Gate{RZ, q, -1, 0} }
	cnot := func(c, q int) Gate { return Gate{CNOT, q, c, -1} }
	crz := func(c, q int) Gate { return Gate{CRZ, q, c, 0} }
	corpus := []*Circuit{
		// A lone RZ behind a lone CNOT: the RZ chain no pass absorbs pairs
		// with an identity factor on qubit 1 (TestProgramLowersLoneDiagonals).
		specCircuit("lone-rz", 3, false, []Gate{cnot(1, 2), rz(0)}),
		// A CRZ block no diagonal joins runs as a one-gate opU4 on its pair
		// (TestProgramLowersLoneDiagonals), then an RX behind a CNOT on its
		// control pairs with an identity factor under the CNOT's frame.
		// TestProgramDerivCoeffsOracle checks both blocks' derivative
		// slots by finite differences.
		specCircuit("ctrl-diag", 3, false, []Gate{crz(1, 2), cnot(0, 1), rx(0)}),
		// One qubit: the only program shape that runs an opU2 (the second
		// layer's run, behind the re-upload embedding; the first layer's
		// folds into the first embedding).
		specCircuit("one-qubit", 1, true, []Gate{rx(0), rz(0)}, []Gate{ry(0)}),
		// Two parametrized gates in one pair block, on qubits the CNOT's
		// frame leaves independent: a dense-path opU4.
		specCircuit("dense-u4", 3, false, []Gate{cnot(0, 2), rx(0), ry(1)}),
		// Single- and multi-gate runs on some qubits in front of the first
		// CNOT: they fold into the embedding, qubit 3 keeps the identity.
		specCircuit("u2-runs", 4, false, []Gate{rx(0), rx(1), ry(1), cnot(2, 3)}),
		// Single rotations on distinct qubits pair into Kronecker opU4
		// blocks behind a lone CRZ: a run on qubit 2 pairs with the two-gate
		// run on qubit 0 after it, so the block's qubits are sorted against
		// stream order.
		specCircuit("pairs", 3, false, []Gate{crz(0, 1), rx(0), ry(1), ry(2)}, []Gate{rx(0), ry(0), rx(1), ry(2)}),
		// CNOTs alone: no instruction beyond the embedding, the whole
		// circuit is the readout's frame.
		specCircuit("cnots", 3, false, []Gate{cnot(0, 1), cnot(0, 2)}),
		// CRZs on different pairs with nothing between: one opDiagN.
		specCircuit("diagN", 4, true, []Gate{crz(0, 1), crz(1, 2), crz(3, 0)}, []Gate{crz(2, 3), rz(1)}),
		// A rotation-dense three-qubit block: runs in three frames and a
		// CRZ read through the last one.
		denseTripleCircuit(),
		// One parametrized rotation behind a CNOT on each of two disjoint
		// pairs, on the target (RX) and on the control (RZ): two runs read
		// through a non-identity frame pair with each other.
		specCircuit("entangled-rotations", 4, false, []Gate{cnot(0, 1), rx(1), cnot(2, 3), rz(2)}),
	}
	rng := rand.New(rand.NewSource(517))
	for len(corpus) < 48 {
		corpus = append(corpus, randomCircuit(rng, 3+rng.Intn(3), rng.Intn(2) == 1))
	}
	return corpus
}

// loneRun reports whether an opU4 is a single-qubit run paired with an
// identity factor, and if so the vqubit the run acts on.
func loneRun(in *instr) (vqubit, int, bool) {
	if in.op != opU4 {
		return vqubit{}, 0, false
	}
	q := in.gates[0].Q
	for _, g := range in.gates {
		if g.Kind == CRZ || g.Q != q {
			return vqubit{}, 0, false
		}
	}
	if q == in.q {
		return in.v[0], q, true
	}
	return in.v[1], q, true
}

// checkSinglesPaired fails t if two adjacent executed single-qubit runs
// that pairSingles could have fused are left apart: two opU4 blocks that
// each hold one run beside an identity factor, on different logical qubits
// whose frame masks make them independent. A survivor means the pass lost
// a pairing.
func checkSinglesPaired(t *testing.T, name string, prog *Program) {
	t.Helper()
	for i := 1; i < len(prog.ins); i++ {
		va, qa, okA := loneRun(&prog.ins[i-1])
		vb, qb, okB := loneRun(&prog.ins[i])
		if okA && okB && qa != qb && independent(va, vb) {
			t.Errorf("%s: instructions %d and %d (runs on q%d and q%d) are unpaired single-qubit runs", name, i-1, i, qa, qb)
		}
	}
}

// executedForms is every instruction form fwdBlock and bwdBlock run. The
// compile-time diagonals (opDiag, opCtrlDiag) are absorbed or lowered onto
// opU4 before a program executes, and no CNOT is executed: the compiler
// tracks them in the program's frame.
var executedForms = []opcode{opEmbedProd, opEmbedAll, opU2, opU4, opDiagN}

// checkExecutedForms fails t if an executed instruction is not one of
// executedForms (the executor has no case for it and would skip it), or is
// an opU2 in a program of more than one qubit, where a lone run pairs with
// an identity factor instead.
func checkExecutedForms(t *testing.T, name string, prog *Program) {
	t.Helper()
	for i := range prog.ins {
		op := prog.ins[i].op
		if !slices.Contains(executedForms, op) {
			t.Errorf("%s: instruction %d has op=%d, which the executor does not run", name, i, op)
		}
		if op == opU2 && prog.circ.NumQubits > 1 {
			t.Errorf("%s: instruction %d is an opU2 in a %d-qubit program", name, i, prog.circ.NumQubits)
		}
	}
}

// TestProgramExecutedFormsGrid compiles every ansatz at 1–10 qubits and
// 1–6 layers, with and without re-uploading (720 programs), and requires
// that each executes only the forms in executedForms and leaves no
// single-qubit runs unpaired.
func TestProgramExecutedFormsGrid(t *testing.T) {
	for _, a := range AllAnsatze {
		for nq := 1; nq <= 10; nq++ {
			for layers := 1; layers <= 6; layers++ {
				for _, reup := range []bool{false, true} {
					circ := a.Build(nq, layers)
					if reup {
						circ = circ.WithReupload()
					}
					name := fmt.Sprintf("%v %dq/%dL reupload=%v", a, nq, layers, reup)
					prog := CompileProgram(circ)
					checkExecutedForms(t, name, prog)
					checkSinglesPaired(t, name, prog)
				}
			}
		}
	}
}

// TestProgramLowersLoneDiagonals pins how the corpus's lone diagonal chains
// compile: a lone RZ chain becomes an opU4 beside an identity factor on the
// lowest other qubit, a lone CRZ chain a one-gate opU4 on its sorted qubit
// pair, and a run behind a CNOT an opU4 under the CNOT's frame; rotations
// in front of the first two-qubit gate fold into the opEmbedProd.
func TestProgramLowersLoneDiagonals(t *testing.T) {
	type form struct {
		op     opcode
		q, c   int
		gates  int
		va, vb vqubit
	}
	cases := []struct {
		name string
		want []form
	}{
		// The CNOT(1→2) runs as a frame change before the RZ: qubit 1 then
		// flips physical bits 1 and 2.
		{"lone-rz", []form{{opEmbedProd, -1, -1, 0, vqubit{}, vqubit{}}, {opU4, 0, 1, 1, vqubit{1, 1}, vqubit{2, 6}}}},
		// Under CNOT(0→1), qubit 0 flips physical bits 0 and 1 and qubit
		// 1's bit is the parity of physical bits 0 and 1.
		{"ctrl-diag", []form{
			{opEmbedProd, -1, -1, 0, vqubit{}, vqubit{}},
			{opU4, 1, 2, 1, vqubit{2, 2}, vqubit{4, 4}},
			{opU4, 0, 1, 1, vqubit{1, 3}, vqubit{3, 2}},
		}},
		// The first layer's two rotations fold into the embedding.
		{"one-qubit", []form{
			{opEmbedProd, -1, -1, 2, vqubit{}, vqubit{}},
			{opEmbedAll, -1, -1, 0, vqubit{}, vqubit{}}, {opU2, 0, -1, 1, vqubit{}, vqubit{}},
		}},
		// Rotations in front of the first CNOT fold into the embedding.
		{"u2-runs", []form{{opEmbedProd, -1, -1, 3, vqubit{}, vqubit{}}}},
	}
	byName := map[string]*Circuit{}
	for _, circ := range compilerCorpus() {
		byName[circ.Name] = circ
	}
	for _, c := range cases {
		prog := CompileProgram(byName[c.name])
		var got []form
		for _, in := range prog.ins {
			got = append(got, form{in.op, in.q, in.c, len(in.gates), in.v[0], in.v[1]})
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: compiled to %v, want %v", c.name, got, c.want)
		}
	}
}

// TestProgramNetUnitaryOracle is the compiler-level parity oracle: on every
// circuit of the compiler corpus, the composed dense matrix of the compiled
// instruction stream must equal the gate-by-gate dense product of the
// source circuit, and the sharded engine executing the program must match
// the naive dense engine to 1e-10. This pins every fusion pass —
// single-qubit runs, diagonal merges, 4×4 entangler blocks, permutations,
// single-run pairs, full-register diagonals — and the kernels behind each
// instruction form. The sharded adjoint's dTheta must also equal the
// parameter-shift gradient contracted with the upstream weights to 1e-9,
// an oracle that shares no code with the compiled program. Across the corpus every
// opcode must be emitted, so a kernel the compiler can no longer reach fails
// here instead of rotting.
func TestProgramNetUnitaryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seen := map[opcode]bool{}
	for _, circ := range compilerCorpus() {
		theta := randTheta(rng, circ.NumParams)
		dim := 1 << circ.NumQubits
		ref := eye(dim)
		for _, g := range circ.Gates {
			ref = expand(g, theta, circ.NumQubits).mul(ref)
		}
		prog := CompileProgram(circ)
		for _, in := range prog.ins {
			seen[in.op] = true
		}
		checkSinglesPaired(t, circ.Name, prog)
		checkExecutedForms(t, circ.Name, prog)
		coeff := make([]float64, prog.NumCoeffs())
		prog.FillCoeffs(theta, coeff)
		got := progNetMatrix(prog, coeff)
		var maxd float64
		for i := range ref.data {
			if d := cmplx.Abs(got.data[i] - ref.data[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-12 {
			t.Errorf("%s %v: net unitary diverges from gate product by %v", circ.Name, circ.Gates, maxd)
		}

		n, nq := 5, circ.NumQubits
		angles := randAngles(rng, n, nq)
		tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		want := runEngine(EngineNaive, circ, n, angles, tans, theta, gz, gztans)
		have := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
		//torq:allow maprange -- independent per-series assertions
		for name, pair := range map[string][2][]float64{
			"z": {want.z, have.z}, "dAngles": {want.dAngles, have.dAngles},
			"dTheta": {want.dTheta, have.dTheta},
			"ztans":  {want.ztans[0], have.ztans[0]}, "dTans": {want.dTans[2], have.dTans[2]},
		} {
			if d := maxAbsDiff(pair[0], pair[1]); d > 1e-10 {
				t.Errorf("%s %v: sharded %s diverges from naive by %v", circ.Name, circ.Gates, name, d)
			}
		}

		// Parameter-shift oracle (four-term rule for CRZ) on the value
		// readout alone: dTheta_p = Σ_i gz[i]·∂z_i/∂θ_p.
		plain := runEngine(EngineSharded, circ, n, angles, nil, theta, gz, nil)
		shift := ParameterShiftGrad(circ, angles, theta, n)
		for p := range shift {
			var want float64
			for i, g := range shift[p] {
				want += gz[i] * g
			}
			if d := math.Abs(plain.dTheta[p] - want); d > 1e-9 {
				t.Errorf("%s %v: param %d adjoint %v vs parameter shift %v", circ.Name, circ.Gates, p, plain.dTheta[p], want)
			}
		}
	}
	for _, op := range executedForms {
		if !seen[op] {
			t.Errorf("no corpus circuit compiles to op=%d", op)
		}
	}
}

// TestProgramDerivCoeffsOracle checks the fused-block derivative matrices
// against central finite differences of the forward coefficients on every
// circuit of the compiler corpus: for every fused unitary instruction,
// dU/dθ_p from FillDerivCoeffs must match (U(θ+ε) − U(θ−ε)) / 2ε. For an
// opEmbedProd the derivative slot of a folded gate on qubit q is checked
// against the difference of W_q, and every other qubit's W must not move.
func TestProgramDerivCoeffsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const eps = 1e-6
	for _, circ := range compilerCorpus() {
		theta := randTheta(rng, circ.NumParams)
		prog := CompileProgram(circ)
		deriv := make([]float64, prog.nderiv)
		plus := make([]float64, prog.ncoef)
		minus := make([]float64, prog.ncoef)
		prog.FillDerivCoeffs(theta, deriv)
		tweak := append([]float64(nil), theta...)
		for _, in := range prog.ins {
			var width int
			switch in.op {
			case opU2, opEmbedProd:
				width = 8
			case opU4:
				width = 32
			default:
				continue
			}
			// qubits[pi] is the qubit whose W the pi-th parameter moves.
			var qubits []int
			for _, g := range in.gates {
				if g.P >= 0 {
					qubits = append(qubits, g.Q)
				}
			}
			for pi, p := range in.params {
				tweak[p] = theta[p] + eps
				prog.FillCoeffs(tweak, plus)
				tweak[p] = theta[p] - eps
				prog.FillCoeffs(tweak, minus)
				tweak[p] = theta[p]
				span := width
				if in.op == opEmbedProd {
					span = 8 * circ.NumQubits
				}
				for i := 0; i < span; i++ {
					fd := (plus[in.slot+i] - minus[in.slot+i]) / (2 * eps)
					var an float64
					switch {
					case in.op != opEmbedProd:
						an = deriv[in.dslot+width*pi+i]
					case i/8 == qubits[pi]:
						an = deriv[in.dslot+8*pi+i%8]
					}
					if math.Abs(fd-an) > 1e-8 {
						t.Fatalf("%s op=%d param %d coeff %d: analytic %v vs finite-diff %v", circ.Name, in.op, p, i, an, fd)
					}
				}
			}
		}
	}
}

// TestProgramDiagCommutationAbsorb pins the level-3 commutation-aware
// diagonal absorption: diagonal instructions separated by blocks with
// disjoint support merge into one full-register diagonal (not only
// consecutive runs), while a blocker touching the diagonal's
// support keeps it out of the group. Both the instruction shapes and full
// numerical parity against the naive engine are checked.
func TestProgramDiagCommutationAbsorb(t *testing.T) {
	// CRZ(0→1), CNOT(2→3), RZ(0), CRZ(0→1): the CNOT's support {2,3} is
	// disjoint from every diagonal's support, so all three diagonals commute
	// into one group.
	circ := &Circuit{
		Name:      "diag-commute",
		NumQubits: 4,
		Gates: []Gate{
			{CRZ, 1, 0, 0},
			{CNOT, 3, 2, -1},
			{RZ, 0, -1, 1},
			{CRZ, 1, 0, 2},
		},
		NumParams: 3,
	}
	prog := CompileProgram(circ)
	// embed + diagN; the CNOT only changes the frame.
	if got := prog.NumInstructions(); got != 2 || len(prog.cnots) != 1 {
		t.Fatalf("commuting diagonals: %d instructions and %d CNOTs in the frame, want 2 and 1", got, len(prog.cnots))
	}
	var dn *instr
	for i := range prog.ins {
		if prog.ins[i].op == opDiagN {
			dn = &prog.ins[i]
		}
	}
	if dn == nil || len(dn.params) != 3 {
		t.Fatalf("expected one fused diagonal absorbing all 3 parameters, got %+v", dn)
	}

	// RZ(0), CNOT(0→1), RX(0), CNOT(0→1), RZ(0): under the first CNOT's
	// frame the RX flips both qubits' physical bits, the first RZ's bit
	// among them (logically RX₀ conjugated by the CNOT is an X₀X₁
	// rotation), so the diagonals must NOT commute past it into one group.
	// (A CNOT alone never blocks: it runs as a frame change, and a diagonal
	// read through any frame is still diagonal.)
	blocked := &Circuit{
		Name:      "diag-blocked",
		NumQubits: 2,
		Gates: []Gate{
			{RZ, 0, -1, 0},
			{CNOT, 1, 0, -1},
			{RX, 0, -1, 1},
			{CNOT, 1, 0, -1},
			{RZ, 0, -1, 2},
		},
		NumParams: 3,
	}
	bprog := CompileProgram(blocked)
	for i := range bprog.ins {
		if bprog.ins[i].op == opDiagN {
			t.Fatalf("blocked diagonals fused across a non-commuting CNOT")
		}
	}

	// Numerical parity on both shapes, sharded against naive.
	rng := rand.New(rand.NewSource(321))
	for _, c := range []*Circuit{circ, blocked} {
		n, nq := 3, c.NumQubits
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, c.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, nil}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, nil}
		ref := runEngine(EngineNaive, c, n, angles, tans, theta, gz, gztans)
		got := runEngine(EngineSharded, c, n, angles, tans, theta, gz, gztans)
		//torq:allow maprange -- independent per-series assertions
		for name, pair := range map[string][2][]float64{
			"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
			"dTheta": {ref.dTheta, got.dTheta},
		} {
			if d := maxAbsDiff(pair[0], pair[1]); d > 1e-10 {
				t.Errorf("%s sharded: %s diverges by %v", c.Name, name, d)
			}
		}
	}
}

// denseTripleCircuit builds a rotation-dense three-qubit block: rotation
// walls around CNOTs chaining qubits 0–1–2 and a closing CRZ, so its runs
// and its diagonal sit in three different frames.
func denseTripleCircuit() *Circuit {
	var gates []Gate
	p := 0
	rot := func(q int) {
		gates = append(gates,
			Gate{RZ, q, -1, p}, Gate{RY, q, -1, p + 1}, Gate{RZ, q, -1, p + 2})
		p += 3
	}
	rot(0)
	rot(1)
	gates = append(gates, Gate{CNOT, 1, 0, -1})
	rot(0)
	rot(1)
	gates = append(gates, Gate{CNOT, 2, 1, -1})
	rot(2)
	gates = append(gates, Gate{CRZ, 2, 0, p})
	p++
	return &Circuit{Name: "dense-triple", NumQubits: 3, Gates: gates, NumParams: p}
}

// TestProgramDiagNSigns pins the structure of the full-register diagonal
// sign tables: a CRZ contributes 0 on its control-unset half and ∓1 with
// the target bit on the control-set half.
func TestProgramDiagNSigns(t *testing.T) {
	circ := CrossMesh.Build(3, 1)
	prog := CompileProgram(circ)
	var dn *instr
	for i := range prog.ins {
		if prog.ins[i].op == opDiagN {
			dn = &prog.ins[i]
			break
		}
	}
	if dn == nil {
		t.Fatal("CrossMesh program has no fused diagonal instruction")
	}
	dim := 1 << circ.NumQubits
	if len(dn.params) != 6 || len(dn.signs) != 6*dim {
		t.Fatalf("fused diagonal: %d params, %d signs", len(dn.params), len(dn.signs))
	}
	pi := 0
	for _, g := range dn.gates {
		row := dn.signs[pi*dim : (pi+1)*dim]
		for j := 0; j < dim; j++ {
			want := int8(0)
			if j&(1<<g.C) != 0 {
				if j&(1<<g.Q) == 0 {
					want = 1
				} else {
					want = -1
				}
			}
			if row[j] != want {
				t.Fatalf("gate CRZ(c=%d,t=%d) basis %d: sign %d, want %d", g.C, g.Q, j, row[j], want)
			}
		}
		pi++
	}
}

// randomStream draws a layered gate stream over nq qubits from
// RX/RY/RZ/CNOT/CRZ (single-qubit kinds only on one qubit), with and
// without re-uploading. Kinds and qubits come only from rng.
func randomStream(rng *rand.Rand, nq int, reupload bool) *Circuit {
	kinds := 5
	if nq == 1 {
		kinds = 3
	}
	layers := make([][]Gate, 1+rng.Intn(3))
	for l := range layers {
		for i := 1 + rng.Intn(12); i > 0; i-- {
			kind := GateKind(rng.Intn(kinds))
			g := Gate{Kind: kind, Q: rng.Intn(nq), C: -1}
			if kind == CNOT || kind == CRZ {
				g.C = (g.Q + 1 + rng.Intn(nq-1)) % nq
			}
			layers[l] = append(layers[l], g)
		}
	}
	return specCircuit(fmt.Sprintf("stream-%dq", nq), nq, reupload, layers...)
}

// TestProgramRandomCircuits is the randomized-circuit parity pin for the
// frame-tracking compiler: about 200 circuits, hand-picked ones first (CNOTs
// alone, a re-upload embedding under a CNOT frame, CRZs after CNOTs, runs
// whose frames leave them no partner, one and two qubits, rotation walls
// folded into the embedding on every qubit, on some, as multi-gate runs or
// as a whole circuit, and a first gate that is a CNOT or a CRZ, so that
// nothing folds), then streams
// drawn from rand.New(rand.NewSource(517)) over 1–7 qubits with and without
// re-uploading. On each, the sharded engine must match the naive dense
// engine to 1e-10 in z, every tangent, dθ, dAngles and dAngleTans, and its
// AVX2 and pure-Go kernel paths must agree bit for bit.
func TestProgramRandomCircuits(t *testing.T) {
	defer func(v bool) { useSIMD = v }(useSIMD)
	rx := func(q int) Gate { return Gate{RX, q, -1, 0} }
	ry := func(q int) Gate { return Gate{RY, q, -1, 0} }
	rz := func(q int) Gate { return Gate{RZ, q, -1, 0} }
	cnot := func(c, q int) Gate { return Gate{CNOT, q, c, -1} }
	crz := func(c, q int) Gate { return Gate{CRZ, q, c, 0} }
	cases := []*Circuit{
		specCircuit("cnot-only", 3, false, []Gate{cnot(0, 1), cnot(1, 2), cnot(2, 0)}),
		specCircuit("cnot-then-reupload", 3, true,
			[]Gate{ry(0), cnot(0, 1), cnot(1, 2)}, []Gate{rx(1), cnot(2, 0), rz(2)}),
		specCircuit("crz-after-cnot", 3, false, []Gate{rx(0), cnot(0, 1), crz(1, 2), crz(0, 1), ry(2)}),
		// Under CNOT(0→1) qubit 1's bit reads qubit 0's, so the two runs are
		// not independent and each pairs with an identity factor.
		specCircuit("lone-run", 2, false, []Gate{rx(0), cnot(0, 1), ry(1)}),
		specCircuit("one-qubit", 1, true, []Gate{rx(0), rz(0)}, []Gate{ry(0), rx(0)}),
		specCircuit("two-qubit", 2, true,
			[]Gate{rz(0), ry(0), rx(1), cnot(0, 1), cnot(1, 0)}, []Gate{crz(1, 0), ry(1), cnot(1, 0), rz(0)}),
		specCircuit("full-wall", 4, false,
			[]Gate{rz(0), ry(0), rz(0), rz(1), ry(1), rz(1), rz(2), ry(2), rz(2), rz(3), ry(3), rz(3),
				cnot(0, 1), cnot(1, 2), cnot(2, 3), cnot(3, 0), ry(2), rx(0)}),
		specCircuit("partial-wall", 5, false, []Gate{rx(1), ry(3), crz(1, 3), rz(0), ry(1)}),
		specCircuit("interleaved-runs", 3, true,
			[]Gate{rx(0), ry(2), rz(0), rx(2), ry(0), cnot(2, 1), rx(1)}, []Gate{ry(0), cnot(0, 2), rz(2)}),
		specCircuit("all-folded", 3, false, []Gate{rx(0), ry(1), rz(2)}, []Gate{ry(0), rx(2), rz(0)}),
		specCircuit("cnot-first", 3, false, []Gate{cnot(0, 1), rx(0), ry(1), rz(2)}),
		specCircuit("crz-first", 3, true, []Gate{crz(2, 0), rx(0), ry(2)}, []Gate{rx(1), cnot(1, 2)}),
	}
	rng := rand.New(rand.NewSource(517))
	for len(cases) < 200 {
		cases = append(cases, randomStream(rng, 1+rng.Intn(7), rng.Intn(2) == 1))
	}
	for i, circ := range cases {
		n, nq := 3, circ.NumQubits
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		name := fmt.Sprintf("case %d %s reupload=%v %v", i, circ.Name, circ.Reupload, circ.Gates)
		checkExecutedForms(t, name, CompileProgram(circ))

		want := runEngine(EngineNaive, circ, n, angles, tans, theta, gz, gztans)
		useSIMD = false
		have := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
		series := func(r engineResult) map[string][]float64 {
			return map[string][]float64{
				"z": r.z, "dθ": r.dTheta, "dAngles": r.dAngles,
				"ztans[0]": r.ztans[0], "ztans[2]": r.ztans[2],
				"dAngleTans[0]": r.dTans[0], "dAngleTans[2]": r.dTans[2],
			}
		}
		ws, hs := series(want), series(have)
		//torq:allow maprange -- independent per-series assertions
		for s, w := range ws {
			if d := maxAbsDiff(w, hs[s]); d > 1e-10 {
				t.Errorf("%s: sharded %s diverges from naive by %v", name, s, d)
			}
		}
		if !cpufeat.AVX2 {
			continue
		}
		useSIMD = true
		simd := series(runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans))
		//torq:allow maprange -- independent per-series assertions
		for s, g := range hs {
			if j, ok := sameBitsNaN(g, simd[s]); !ok {
				t.Errorf("%s: %s[%d] = %v on simd, %v on go", name, s, j, simd[s][j], g[j])
			}
		}
	}
}
