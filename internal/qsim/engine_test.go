package qsim

import (
	"math"
	"math/rand"
	"slices"
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
		{CrossMesh, 4, 2, false, 5, 0x83d88f0510d4d0ac},
		{CrossMesh, 4, 2, true, 6, 0xa50c1555b024a33a},
		{CrossMesh2Rot, 4, 2, false, 5, 0x1703d4bec6705a10},
		{CrossMesh2Rot, 4, 2, true, 6, 0x585259a0564ac51e},
		{CrossMeshCNOT, 4, 2, false, 3, 0x4d1c183d53343a71},
		{CrossMeshCNOT, 4, 2, true, 4, 0x7ca7107a7647e8a4},
		{NoEntanglement, 4, 2, false, 1, 0xa4f78ed50f5bd919},
		{NoEntanglement, 4, 2, true, 4, 0x5e92f865b96cc50e},
		{BasicEntangling, 4, 2, false, 3, 0x29f3bb1d3924720f},
		{BasicEntangling, 4, 2, true, 4, 0x2f30cf23e212ce2a},
		{StronglyEntangling, 4, 2, false, 3, 0x8e57db475d7aaa8f},
		{StronglyEntangling, 4, 2, true, 4, 0x6d6afeba5437c3aa},
		{CrossMesh, 7, 4, false, 17, 0xbc3dfbfea5f1a532},
		{CrossMesh, 7, 4, true, 20, 0x78fdd9d0c4fb31f8},
		{CrossMesh2Rot, 7, 4, false, 17, 0xb165c316ed298c34},
		{CrossMesh2Rot, 7, 4, true, 20, 0x51fcbfe03fcae1be},
		{CrossMeshCNOT, 7, 4, false, 13, 0xfe0abb262cf1a0cf},
		{CrossMeshCNOT, 7, 4, true, 16, 0x2e507a94cb19bfc0},
		{NoEntanglement, 7, 4, false, 1, 0x2e92679c34ffc2d0},
		{NoEntanglement, 7, 4, true, 16, 0xcbedde0537a9075b},
		{BasicEntangling, 7, 4, false, 13, 0x19cc486a7e38a16d},
		{BasicEntangling, 7, 4, true, 16, 0x228cb8f9e850b4af},
		{StronglyEntangling, 7, 4, false, 12, 0xb51d0281afc1f4fe},
		{StronglyEntangling, 7, 4, true, 16, 0x27f92a291b671f7e},
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
// summaries would wave a worker with another program through.
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

// TestCoeffTablesKey pins the coefficient cache's key, the program and
// theta's bit pattern, on the two places it lives: a Workspace reused
// across passes and a ShardRunner reused across shards. Each step changes
// one thing against the step before — theta moved by one ulp, one theta
// entry flipped from +0 to −0, and (on the Workspace) a PQC with another
// circuit of the same shape under the same theta — and every z, tangent
// and gradient, and every table, must match a fresh workspace or runner
// bit for bit. No output of a pass can tell +0 from −0 in theta (each one
// accumulates from +0), so the tables themselves are compared: a cache
// compared with == keeps the +0 tables, and one keyed only on theta runs
// the second circuit on the first one's tables.
func TestCoeffTablesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(80808))
	const n, nq = 5, 2
	// Cross-Mesh on two qubits, and the same gates with RY where it has
	// RX: the same parameter count and the same instruction and table
	// shapes, so only the program tells their tables apart.
	circA := CrossMesh.Build(nq, 1)
	circB := &Circuit{Name: "ry-mesh", NumQubits: nq, Layers: 1, NumParams: circA.NumParams,
		Gates: append([]Gate(nil), circA.Gates...)}
	for i, g := range circB.Gates {
		if g.Kind == RX {
			circB.Gates[i].Kind = RY
		}
	}
	active := [MaxTangents]bool{true, false, true}
	angles, gz := randAngles(rng, n, nq), randAngles(rng, n, nq)
	var angleTans, gztans [MaxTangents][]float64
	for k := range active {
		if active[k] {
			angleTans[k], gztans[k] = randAngles(rng, n, nq), randAngles(rng, n, nq)
		}
	}
	// Entry 0 is the first RX's angle, which its opEmbedProd slot holds
	// unmultiplied, so its sign of zero reaches the tables.
	theta0 := randTheta(rng, circA.NumParams)
	theta0[0] = 0
	negZero := append([]float64(nil), theta0...)
	negZero[0] = math.Copysign(0, -1)
	ulp := append([]float64(nil), negZero...)
	ulp[1] = math.Nextafter(ulp[1], math.Inf(1))
	steps := []struct {
		name     string
		circ     *Circuit
		theta    []float64
		signFlip bool
	}{
		{"first pass", circA, theta0, false},
		{"+0 → −0", circA, negZero, true},
		{"one ulp", circA, ulp, false},
		{"other circuit", circB, ulp, false},
	}

	type passOut struct {
		outs [][]float64 // z, tangents and gradients
		tabs [3][]float64
	}
	same := func(a, b [][]float64) bool {
		for i := range a {
			if !bitsEqualF64(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	check := func(ctx string, got, want, prev passOut, signFlip bool) {
		t.Helper()
		for i := range want.outs {
			if !bitsEqualF64(got.outs[i], want.outs[i]) {
				t.Errorf("%s: output %d differs from a fresh one", ctx, i)
			}
		}
		for i, name := range []string{"coeff", "pack", "dcoef"} {
			if !bitsEqualF64(got.tabs[i], want.tabs[i]) {
				t.Errorf("%s: %s table differs from a fresh fill", ctx, name)
			}
		}
		// The premise: the step changes what a fresh pass produces — its
		// tables for the sign flip, which no output shows, else its outputs.
		if prev.outs == nil {
			return
		}
		changed := !same(want.outs, prev.outs)
		if signFlip {
			changed = !same(want.tabs[:], prev.tabs[:])
		}
		if !changed {
			t.Fatalf("%s: test premise broken, the step changes nothing a fresh pass produces", ctx)
		}
	}
	tables := func(tab *coeffTables) [3][]float64 {
		return [3][]float64{slices.Clone(tab.coeff), slices.Clone(tab.pack), slices.Clone(tab.dcoef)}
	}

	// One Workspace and one PQC per circuit through every step, against a
	// fresh workspace and PQC per step.
	wsPass := func(ws *Workspace, pqc *PQC, theta []float64) passOut {
		circ := pqc.Circ
		z, ztans := pqc.Forward(ws, angles, angleTans[:], theta)
		dA, dTh := make([]float64, n*nq), make([]float64, circ.NumParams)
		dAT := make([][]float64, MaxTangents)
		out := passOut{outs: [][]float64{z, dA, dTh}}
		for k := range active {
			if active[k] {
				dAT[k] = make([]float64, n*nq)
				out.outs = append(out.outs, ztans[k], dAT[k])
			}
		}
		pqc.Backward(ws, gz, gztans[:], dA, dAT, dTh)
		out.tabs = tables(ws.tab)
		return out
	}
	ws := NewWorkspace(n, nq)
	pqcs := map[*Circuit]*PQC{circA: {Circ: circA}, circB: {Circ: circB}}
	var prev passOut
	for _, st := range steps {
		want := wsPass(NewWorkspace(n, nq), &PQC{Circ: st.circ}, st.theta)
		check("Workspace, "+st.name, wsPass(ws, pqcs[st.circ], st.theta), want, prev, st.signFlip)
		prev = want
	}

	// One ShardRunner through the theta steps, against a fresh one per step.
	runnerPass := func(r *ShardRunner, theta []float64) passOut {
		z, ztans := r.ForwardShard(0, n, active, angles, angleTans, theta)
		out := passOut{outs: [][]float64{slices.Clone(z)}}
		for k := range active {
			if active[k] {
				out.outs = append(out.outs, slices.Clone(ztans[k]))
			}
		}
		dA, dAT, dTh, diagT, _ := r.BackwardShard(0, n, active, angles, angleTans, theta, gz, gztans)
		out.outs = append(out.outs, slices.Clone(dA), slices.Clone(dTh), slices.Clone(diagT))
		for k := range active {
			if active[k] {
				out.outs = append(out.outs, slices.Clone(dAT[k]))
			}
		}
		out.tabs = tables(&r.tab)
		return out
	}
	r := mustShardRunner(t, circA)
	prev = passOut{}
	for _, st := range steps[:3] {
		want := runnerPass(mustShardRunner(t, circA), st.theta)
		check("ShardRunner, "+st.name, runnerPass(r, st.theta), want, prev, st.signFlip)
		prev = want
	}
}
