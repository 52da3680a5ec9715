package qsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/par"
)

// engineResult bundles everything one engine produces for a full
// forward+backward pass.
type engineResult struct {
	z, dAngles, dTheta []float64
	ztans, dTans       [][]float64
}

// runEngine executes one forward+backward pass of circ on the given engine
// with shared random inputs.
func runEngine(kind EngineKind, circ *Circuit, n int, angles []float64, tans [][]float64,
	theta, gz []float64, gztans [][]float64) engineResult {
	return runPQC(&PQC{Circ: circ, Eng: kind}, n, angles, tans, theta, gz, gztans)
}

// runPQC is runEngine for a PQC as given, whose compiled program a test
// may have set.
func runPQC(pqc *PQC, n int, angles []float64, tans [][]float64,
	theta, gz []float64, gztans [][]float64) engineResult {
	nq := pqc.Circ.NumQubits
	ws := NewWorkspace(n, nq)
	z, ztans := pqc.Forward(ws, angles, tans, theta)
	res := engineResult{
		z:       z,
		ztans:   ztans,
		dAngles: make([]float64, n*nq),
		dTheta:  make([]float64, pqc.Circ.NumParams),
		dTans:   make([][]float64, MaxTangents),
	}
	for k := range tans {
		if tans[k] != nil {
			res.dTans[k] = make([]float64, n*nq)
		}
	}
	pqc.Backward(ws, gz, gztans, res.dAngles, res.dTans, res.dTheta)
	return res
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestEngineParity is the decisive cross-engine check: on randomized seeded
// circuits across every ansatz (with and without data re-uploading), the
// sharded engine must reproduce the naive dense engine's expectations,
// tangents, and adjoint gradients to tight tolerance. The two share no
// kernel code (compiled instruction stream with gate fusion vs per-gate
// dense matrices), so agreement pins the whole compile/execute stack. Every ansatz runs at 4
// qubits and at 1, where the entangling ansätze emit no entangler.
func TestEngineParity(t *testing.T) { onBothPaths(t, testEngineParity) }

func testEngineParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const tol = 1e-10
	// The one-qubit cases run after the four-qubit ones, whose draws they
	// leave unchanged.
	for _, nq := range []int{4, 1} {
		for _, a := range AllAnsatze {
			for _, reup := range []bool{false, true} {
				circ := a.Build(nq, 2)
				if reup {
					circ = circ.WithReupload()
				}
				n := 5
				angles := randAngles(rng, n, nq)
				theta := randTheta(rng, circ.NumParams)
				// Two active tangent channels (one structurally absent), mirroring
				// how the PINN drives the layer.
				tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
				gz := randAngles(rng, n, nq)
				gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

				ref := runEngine(EngineNaive, circ, n, angles, tans, theta, gz, gztans)
				got := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
				check := func(name string, want, have []float64) {
					if d := maxAbsDiff(want, have); d > tol {
						t.Errorf("%v nq=%d reupload=%v: sharded %s diverges by %v", a, nq, reup, name, d)
					}
				}
				check("z", ref.z, got.z)
				check("dAngles", ref.dAngles, got.dAngles)
				check("dTheta", ref.dTheta, got.dTheta)
				for k := 0; k < MaxTangents; k++ {
					if ref.ztans[k] != nil {
						check("ztans", ref.ztans[k], got.ztans[k])
						check("dTans", ref.dTans[k], got.dTans[k])
					} else if got.ztans[k] != nil {
						t.Errorf("%v: tangent channel %d unexpectedly present", a, k)
					}
				}
			}
		}
	}
}

// TestEngineParityNoTangents covers the pure value path (no tangent
// channels, nil gradient buffers) the barren-plateau probe uses.
func TestEngineParityNoTangents(t *testing.T) { onBothPaths(t, testEngineParityNoTangents) }

func testEngineParityNoTangents(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	circ := StronglyEntangling.Build(5, 3)
	n, nq := 7, 5
	angles := randAngles(rng, n, nq)
	theta := randTheta(rng, circ.NumParams)
	gz := randAngles(rng, n, nq)

	run := func(kind EngineKind) ([]float64, []float64, []float64) {
		pqc := &PQC{Circ: circ, Eng: kind}
		ws := NewWorkspace(n, nq)
		z, _ := pqc.Forward(ws, angles, nil, theta)
		dA := make([]float64, n*nq)
		dTheta := make([]float64, circ.NumParams)
		pqc.Backward(ws, gz, nil, dA, nil, dTheta)
		return z, dA, dTheta
	}
	zN, daN, dtN := run(EngineNaive)
	z, da, dt := run(EngineSharded)
	//torq:allow maprange -- independent per-series assertions
	for name, pair := range map[string][2][]float64{
		"z": {zN, z}, "dAngles": {daN, da}, "dTheta": {dtN, dt},
	} {
		if d := maxAbsDiff(pair[0], pair[1]); d > 1e-10 {
			t.Errorf("sharded: %s diverges by %v", name, d)
		}
	}
}

// TestEngineParityRandomShapes: property-style sweep over random batch
// sizes, qubit counts (2–5) and depths, sharded vs naive.
func TestEngineParityRandomShapes(t *testing.T) { onBothPaths(t, testEngineParityRandomShapes) }

func testEngineParityRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 25; trial++ {
		a := AllAnsatze[rng.Intn(len(AllAnsatze))]
		nq := 2 + rng.Intn(4)
		layers := 1 + rng.Intn(3)
		circ := a.Build(nq, layers)
		if rng.Intn(2) == 1 {
			circ = circ.WithReupload()
		}
		n := 1 + rng.Intn(9)
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := make([][]float64, MaxTangents)
		gztans := make([][]float64, MaxTangents)
		for k := 0; k < MaxTangents; k++ {
			if rng.Intn(2) == 1 {
				tans[k] = randAngles(rng, n, nq)
				gztans[k] = randAngles(rng, n, nq)
			}
		}
		gz := randAngles(rng, n, nq)

		ref := runEngine(EngineNaive, circ, n, angles, tans, theta, gz, gztans)
		kind := EngineSharded
		got := runEngine(kind, circ, n, angles, tans, theta, gz, gztans)
		if d := maxAbsDiff(ref.z, got.z); d > 1e-10 {
			t.Fatalf("trial %d (%v nq=%d L=%d n=%d %v): z diverges by %v", trial, a, nq, layers, n, kind, d)
		}
		if d := maxAbsDiff(ref.dAngles, got.dAngles); d > 1e-10 {
			t.Fatalf("trial %d (%v nq=%d L=%d n=%d %v): dAngles diverges by %v", trial, a, nq, layers, n, kind, d)
		}
		if d := maxAbsDiff(ref.dTheta, got.dTheta); d > 1e-10 {
			t.Fatalf("trial %d (%v nq=%d L=%d n=%d %v): dTheta diverges by %v", trial, a, nq, layers, n, kind, d)
		}
		for k := 0; k < MaxTangents; k++ {
			if tans[k] == nil {
				continue
			}
			if d := maxAbsDiff(ref.ztans[k], got.ztans[k]); d > 1e-10 {
				t.Fatalf("trial %d %v: ztans[%d] diverges by %v", trial, kind, k, d)
			}
			if d := maxAbsDiff(ref.dTans[k], got.dTans[k]); d > 1e-10 {
				t.Fatalf("trial %d %v: dTans[%d] diverges by %v", trial, kind, k, d)
			}
		}
	}
}

// TestEngineParityNilValueGradient: gradient flowing only through the
// tangent readouts (gz == nil) is a supported call shape on every engine.
func TestEngineParityNilValueGradient(t *testing.T) { onBothPaths(t, testEngineParityNilValueGradient) }

func testEngineParityNilValueGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	circ := BasicEntangling.Build(3, 2)
	n, nq := 4, 3
	angles := randAngles(rng, n, nq)
	theta := randTheta(rng, circ.NumParams)
	tans := [][]float64{randAngles(rng, n, nq), nil, nil}
	gztans := [][]float64{randAngles(rng, n, nq), nil, nil}

	ref := runEngine(EngineNaive, circ, n, angles, tans, theta, nil, gztans)
	got := runEngine(EngineSharded, circ, n, angles, tans, theta, nil, gztans)
	if d := maxAbsDiff(ref.dAngles, got.dAngles); d > 1e-10 {
		t.Errorf("sharded: dAngles diverges by %v", d)
	}
	if d := maxAbsDiff(ref.dTheta, got.dTheta); d > 1e-10 {
		t.Errorf("sharded: dTheta diverges by %v", d)
	}
}

// TestEngineParityForcedParallel forces a multi-chunk par.RunChunk region
// even on single-core hosts, exercising the sharded engine's claim that
// workers on disjoint sample ranges share one workspace race-free
// (per-shard dTheta partials, per-sample scratch). Run under -race this is
// the engine's concurrency check.
func TestEngineParityForcedParallel(t *testing.T) { onBothPaths(t, testEngineParityForcedParallel) }

func testEngineParityForcedParallel(t *testing.T) {
	defer par.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(31337))
	// Cross-Mesh matters here beyond Strongly-Entangling: its CRZ meshes
	// compile to fused diagonals whose gradients contract once per pass
	// after the shard merge — the epilogue a scheduler that runs several
	// shards per worker could double-count.
	for _, a := range []AnsatzKind{StronglyEntangling, CrossMesh} {
		circ := a.Build(4, 3).WithReupload()
		n, nq := 37, 4 // odd batch: uneven chunks and partial tail blocks
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), randAngles(rng, n, nq), randAngles(rng, n, nq)}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), randAngles(rng, n, nq), randAngles(rng, n, nq)}

		kind := EngineSharded
		par.SetMaxWorkers(1)
		serial := runEngine(kind, circ, n, angles, tans, theta, gz, gztans)
		for _, workers := range []int{3, 8} {
			par.SetMaxWorkers(workers)
			got := runEngine(kind, circ, n, angles, tans, theta, gz, gztans)
			//torq:allow maprange -- independent per-series assertions
			for name, pair := range map[string][2][]float64{
				"z": {serial.z, got.z}, "dAngles": {serial.dAngles, got.dAngles},
				"dTheta": {serial.dTheta, got.dTheta},
			} {
				if d := maxAbsDiff(pair[0], pair[1]); d > 1e-12 {
					t.Errorf("%v %v workers=%d: %s diverges from serial by %v", a, kind, workers, name, d)
				}
			}
			for k := 0; k < MaxTangents; k++ {
				if d := maxAbsDiff(serial.ztans[k], got.ztans[k]); d > 1e-12 {
					t.Errorf("%v %v workers=%d: ztans[%d] diverges by %v", a, kind, workers, k, d)
				}
				if d := maxAbsDiff(serial.dTans[k], got.dTans[k]); d > 1e-12 {
					t.Errorf("%v %v workers=%d: dTans[%d] diverges by %v", a, kind, workers, k, d)
				}
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkerCounts pins the sharded engine's
// distinguishing guarantee: because gradient partials accumulate per shard
// (a partition fixed by the batch shape alone) and merge in shard order,
// outputs and gradients are BIT-identical — not merely within tolerance —
// for every worker bound. Per-worker partials could not promise this: their
// reduction order would follow the worker count.
func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	onBothPaths(t, testShardedDeterministicAcrossWorkerCounts)
}

func testShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	defer par.SetMaxWorkers(0)
	shared := rand.New(rand.NewSource(90210))
	cases := []struct {
		a   AnsatzKind
		rng *rand.Rand
	}{
		{StronglyEntangling, shared}, {CrossMesh, shared}, {CrossMeshCNOT, shared},
		{CrossMesh, rand.New(rand.NewSource(777))},
	}
	for _, c := range cases {
		a, rng := c.a, c.rng
		circ := a.Build(5, 3)
		n, nq := 41, 5 // odd batch: a partial tail shard
		angles := randAngles(rng, n, nq)
		theta := randTheta(rng, circ.NumParams)
		tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
		gz := randAngles(rng, n, nq)
		gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

		par.SetMaxWorkers(1)
		ref := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
		for _, workers := range []int{2, 4, 5, 16} {
			par.SetMaxWorkers(workers)
			got := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
			//torq:allow maprange -- independent per-series assertions
			for name, pair := range map[string][2][]float64{
				"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
				"dTheta": {ref.dTheta, got.dTheta},
			} {
				if d := maxAbsDiff(pair[0], pair[1]); d != 0 {
					t.Errorf("%v workers=%d: %s not bit-identical to serial (diff %v)", a, workers, name, d)
				}
			}
			for k := 0; k < MaxTangents; k++ {
				if ref.ztans[k] == nil {
					continue
				}
				if d := maxAbsDiff(ref.ztans[k], got.ztans[k]); d != 0 {
					t.Errorf("%v workers=%d: ztans[%d] not bit-identical (diff %v)", a, workers, k, d)
				}
				if d := maxAbsDiff(ref.dTans[k], got.dTans[k]); d != 0 {
					t.Errorf("%v workers=%d: dTans[%d] not bit-identical (diff %v)", a, workers, k, d)
				}
			}
		}
		par.SetMaxWorkers(1)
	}
}

// TestProgramFusionShrinksStream pins that fusion shrinks every ansatz's
// instruction stream below one instruction per source gate plus one per
// embedding block, and that fusion never crosses an embedding boundary
// under re-uploading: each layer keeps its own embedding instruction, and
// every instruction between two embeddings was fused only from that
// layer's gates.
func TestProgramFusionShrinksStream(t *testing.T) {
	for _, a := range AllAnsatze {
		circ := a.Build(7, 4)
		if got, bound := CompileProgram(circ).NumInstructions(), 1+len(circ.Gates); got >= bound {
			t.Errorf("%v: %d instructions, want fewer than %d", a, got, bound)
		}
	}
	reup := StronglyEntangling.Build(7, 4).WithReupload()
	prog := CompileProgram(reup)
	layer := -1
	for _, in := range prog.ins {
		if in.op == opEmbedProd || in.op == opEmbedAll {
			layer++
		}
		own := reup.LayerSlice(layer)
		for _, g := range in.gates {
			found := false
			for _, h := range own {
				if g == h {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("reupload: instruction op=%d after embedding %d fused gate %+v from another layer", in.op, layer, g)
			}
		}
	}
	if layer+1 != reup.Layers {
		t.Errorf("reupload: %d embedding instructions, want %d", layer+1, reup.Layers)
	}
}

// TestProgramV3GoldenCounts pins every shipped ansatz's compiled program at
// the benchmark shapes (4 qubits / 2 layers and the paper's 7 qubits /
// 4 layers, with and without data re-uploading) by instruction count and
// ProgramDigest hash, so a compiler change that alters any shipped program
// fails here. The 7q/4L counts:
//   - Every shipped ansatz starts with a rotation wall, and every
//     single-qubit gate in front of the first two-qubit gate folds into the
//     opEmbedProd as its qubit's W_q, so the first layer's runs emit no
//     instruction of their own.
//   - No CNOT runs: the compiler tracks them in the program's frame, so the
//     CNOT-bearing ansätze are their remaining rotation runs, paired. Every
//     run pairs with an independent neighbour or, failing one, with an
//     identity factor; 1 + 11 for Strongly-Entangling (the three later
//     layers' 21 runs), 1 + 12 for Basic Entangling and Cross-Mesh-CNOT.
//   - CrossMesh / CrossMesh2Rot: each later layer's 7-rotation wall in front
//     of the fused diagonal mesh pairs into three Kronecker 4×4 blocks and
//     one block with an identity factor: 1 + 1 diagonal + 3·(3 + 1 + 1) = 17.
//   - NoEntanglement has no two-qubit gate, so all 28 rotations fold and
//     the program is the opEmbedProd alone: 1.
//   - Re-uploading variants keep their embedding barriers, and only the
//     first layer's wall folds: Strongly-Entangling and No-Entanglement are
//     four embeddings plus, per later layer, three pairs and one lone run
//     (16).
//
// The 4q/2L programs of the bench's QPINN workloads fold the same way:
// Strongly-Entangling is 1 + 2.
//
// Every program must also leave no two adjacent single-qubit runs that
// could pair (checkSinglesPaired): a lost pairing pass fails here. And it
// must execute only the forms the executor runs (checkExecutedForms).
func TestProgramV3GoldenCounts(t *testing.T) {
	cases := []struct {
		ansatz    AnsatzKind
		nq, layer int
		reup      bool
		want      int
		hash      uint64
	}{
		{CrossMesh, 4, 2, false, 5, 0xe52b67b8a27f9fc1},
		{CrossMesh, 4, 2, true, 6, 0x6a27f5a50897e067},
		{CrossMesh2Rot, 4, 2, false, 5, 0x7a1bca2dec16beeb},
		{CrossMesh2Rot, 4, 2, true, 6, 0x73a2cf7af0a5a251},
		{CrossMeshCNOT, 4, 2, false, 3, 0xde0cb44f14c51c98},
		{CrossMeshCNOT, 4, 2, true, 4, 0xaa43c8660173fe91},
		{NoEntanglement, 4, 2, false, 1, 0xc3272e1b59ed36d0},
		{NoEntanglement, 4, 2, true, 4, 0xb7e6eec8fa7e3a39},
		{BasicEntangling, 4, 2, false, 3, 0x1414d4a8556c1750},
		{BasicEntangling, 4, 2, true, 4, 0x5b511fdcd076401},
		{StronglyEntangling, 4, 2, false, 3, 0xcc3f10308eb9b9d0},
		{StronglyEntangling, 4, 2, true, 4, 0xfc55195888916c81},
		{CrossMesh, 7, 4, false, 17, 0x7007e618051c7735},
		{CrossMesh, 7, 4, true, 20, 0x4287bf64844824ed},
		{CrossMesh2Rot, 7, 4, false, 17, 0xe4e84fe6335e2c0f},
		{CrossMesh2Rot, 7, 4, true, 20, 0x93bfafd809e810a7},
		{CrossMeshCNOT, 7, 4, false, 13, 0x8a78a690616c4ae4},
		{CrossMeshCNOT, 7, 4, true, 16, 0x2fbb922b9b394da7},
		{NoEntanglement, 7, 4, false, 1, 0xd9847760cc43fbef},
		{NoEntanglement, 7, 4, true, 16, 0xe59863600aa28800},
		{BasicEntangling, 7, 4, false, 13, 0xb50d2bf20a45b6e},
		{BasicEntangling, 7, 4, true, 16, 0x42666f80827649a8},
		{StronglyEntangling, 7, 4, false, 12, 0xe6f8af4237e2f129},
		{StronglyEntangling, 7, 4, true, 16, 0x6337feaab7346495},
	}
	for _, c := range cases {
		circ := c.ansatz.Build(c.nq, c.layer)
		if c.reup {
			circ = circ.WithReupload()
		}
		prog := CompileProgram(circ)
		if got := prog.NumInstructions(); got != c.want {
			t.Errorf("%v %dq/%dL reupload=%v: %d instructions, want %d", c.ansatz, c.nq, c.layer, c.reup, got, c.want)
		}
		if got := prog.Digest().Hash; got != c.hash {
			t.Errorf("%v %dq/%dL reupload=%v: digest hash %#x, want %#x", c.ansatz, c.nq, c.layer, c.reup, got, c.hash)
		}
		if prog.Level() != 3 {
			t.Errorf("%v: CompileProgram level = %d, want 3", c.ansatz, prog.Level())
		}
		checkSinglesPaired(t, circ.Name, prog)
		checkExecutedForms(t, circ.Name, prog)
	}
}

// TestEngineKindRoundTrip covers flag parsing.
func TestEngineKindRoundTrip(t *testing.T) {
	// Every registered engine must round-trip through ParseEngine, and the
	// unknown-engine error must enumerate every registered name — a newly
	// landed engine that misses either breaks this table, not a user's flag.
	for _, k := range EngineKinds() {
		if k.String() == "unknown" {
			t.Errorf("engine %d has no canonical name", k)
			continue
		}
		got, err := ParseEngine(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	_, err := ParseEngine("gpu")
	if err == nil {
		t.Fatal("ParseEngine accepted unknown engine")
	}
	for _, k := range EngineKinds() {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("ParseEngine error %q omits engine %q", err, k)
		}
	}
	if k, err := ParseEngine(""); err != nil || k != EngineSharded {
		t.Error("empty engine string should default to sharded")
	}
	var zero EngineKind
	if zero != EngineSharded {
		t.Errorf("zero-value EngineKind is %v, want sharded", zero)
	}
	// Checkpoints store the kind as a number: naive keeps 3, and 2, the
	// retired per-gate engine's, names no engine.
	if EngineNaive != 3 {
		t.Errorf("EngineNaive = %d, want 3", EngineNaive)
	}
	if s := EngineKind(2).String(); s != "unknown" {
		t.Errorf("EngineKind(2).String() = %q, want unknown", s)
	}
	for _, k := range EngineKinds() {
		if k == 2 {
			t.Error("EngineKinds lists the reserved kind 2")
		}
	}
	// Retired engine names are errors, not aliases, and the error lists
	// the valid names.
	if got := EngineNames(); got != "sharded|dist|naive" {
		t.Errorf("EngineNames() = %q, want sharded|dist|naive", got)
	}
	for _, old := range []string{"fused", "fused1", "fused2", "legacy"} {
		_, err := ParseEngine(old)
		if err == nil {
			t.Errorf("ParseEngine(%q) accepted a retired engine", old)
		} else if !strings.Contains(err.Error(), "(want "+EngineNames()+")") {
			t.Errorf("ParseEngine(%q) error %q omits the valid names %q", old, err, EngineNames())
		}
	}
}

// TestAnsatzScalingRoundTrip covers the -ansatz and -scale flag parsing:
// every ansatz and scaling's flag value parses back to its kind, and an
// unknown value is an error that names every valid value.
func TestAnsatzScalingRoundTrip(t *testing.T) {
	for _, a := range AllAnsatze {
		if got, err := ParseAnsatz(ansatzFlags[a]); err != nil || got != a {
			t.Errorf("ansatz %v: ParseAnsatz(%q) = %v, %v", a, ansatzFlags[a], got, err)
		}
	}
	for _, sc := range AllScalings {
		if got, err := ParseScaling(scalingFlags[sc]); err != nil || got != sc {
			t.Errorf("scaling %v: ParseScaling(%q) = %v, %v", sc, scalingFlags[sc], got, err)
		}
	}
	for _, bad := range []string{"", "stronlgy", "Strongly Entangling Layers"} {
		_, err := ParseAnsatz(bad)
		if err == nil {
			t.Fatalf("ParseAnsatz(%q) accepted an unknown ansatz", bad)
		}
		for _, a := range AllAnsatze {
			if !strings.Contains(err.Error(), ansatzFlags[a]) {
				t.Errorf("ParseAnsatz(%q) error %q omits %q", bad, err, ansatzFlags[a])
			}
		}
	}
	for _, bad := range []string{"", "acoss", "scale_acos"} {
		_, err := ParseScaling(bad)
		if err == nil {
			t.Fatalf("ParseScaling(%q) accepted an unknown scaling", bad)
		}
		for _, sc := range AllScalings {
			if !strings.Contains(err.Error(), scalingFlags[sc]) {
				t.Errorf("ParseScaling(%q) error %q omits %q", bad, err, scalingFlags[sc])
			}
		}
	}
}

// TestProgramDigestContent pins the digest the dist handshake relies on:
// identical compiles agree, and two circuits with identical shape counts but
// different content (or coefficient math) must disagree — shape-only
// summaries would wave a version-skewed worker through.
func TestProgramDigestContent(t *testing.T) {
	rx := &Circuit{Name: "rx", NumQubits: 1, Gates: []Gate{{RX, 0, -1, 0}}, NumParams: 1}
	ry := &Circuit{Name: "ry", NumQubits: 1, Gates: []Gate{{RY, 0, -1, 0}}, NumParams: 1}
	dA, dB := CompileProgram(rx).Digest(), CompileProgram(ry).Digest()
	if dA == dB {
		t.Fatal("RX and RY programs share a digest despite different content")
	}
	if got := CompileProgram(rx).Digest(); got != dA {
		t.Fatalf("digest not reproducible: %+v vs %+v", got, dA)
	}
	if dA.Instructions != dB.Instructions || dA.Coeffs != dB.Coeffs {
		t.Fatalf("test premise broken: shapes differ (%+v vs %+v), content hash untested", dA, dB)
	}
}

// TestEngineKindsClosed asserts EngineKinds covers every kind with a
// canonical name: an engine added to the String/Parse pair but forgotten in
// EngineKinds would otherwise silently vanish from flag help, the
// ParseEngine error, and the round-trip test that iterates EngineKinds.
func TestEngineKindsClosed(t *testing.T) {
	listed := map[EngineKind]bool{}
	for _, k := range EngineKinds() {
		listed[k] = true
	}
	for v := 0; v < 64; v++ {
		k := EngineKind(v)
		if k.String() != "unknown" && !listed[k] {
			t.Errorf("engine %v (=%d) has a name but is missing from EngineKinds()", k, v)
		}
	}
}
