// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation. Each benchmark times the kernel that
// dominates the corresponding experiment (a full training epoch for the
// ablation figures, a simulator epoch for Table 2, the reference solvers
// for Fig. 5, the diagnostics for Fig. 10), so `go test -bench=. -benchmem`
// gives the per-unit costs from which full-experiment runtimes scale.
// The experiments themselves are regenerated by cmd/qpinn-bench.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dist"
	"repro/internal/ftdc"
	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/qsim"
	"repro/internal/refsol"
	"repro/internal/trace"
)

// epochRunner packages one training-epoch iteration for benchmarks.
type epochRunner struct {
	model *core.Model
	prob  maxwell.Problem
	coll  *maxwell.Collocation
	cfg   maxwell.Config
	adam  *opt.Adam
	tape  *ad.Tape
}

func newEpochRunner(c maxwell.Case, arch core.Arch, ansatz qsim.AnsatzKind,
	scaling qsim.ScalingKind, energy bool, grid int, engine qsim.EngineKind) *epochRunner {
	prob := maxwell.NewProblem(c)
	mcfg := core.SmokeModel(arch, ansatz, scaling)
	mcfg.Engine = engine
	model := core.NewModel(mcfg)
	return &epochRunner{
		model: model,
		prob:  prob,
		coll:  maxwell.NewCollocation(prob, grid, 5),
		cfg:   maxwell.PaperConfig(energy, c != maxwell.AsymmetricCase),
		adam:  opt.NewAdam(1e-3, model.Reg.Buffers(), model.Reg.Grads),
		tape:  ad.NewTape(),
	}
}

func (e *epochRunner) epoch() float64 {
	e.tape.Reset()
	e.model.Reg.Bind(e.tape, true)
	terms := maxwell.Build(e.tape, e.model.Forward, e.prob, e.coll, e.cfg)
	e.tape.Backward(terms.Total)
	e.model.Reg.PullGrads()
	e.adam.Step()
	return terms.Total.Scalar()
}

// BenchmarkTable1ParamCounts times paper-scale model construction and the
// parameter accounting behind Table 1.
func BenchmarkTable1ParamCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := core.NewModel(core.PaperModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos))
		if _, _, tot := m.ParamCounts(); tot != 66932 {
			b.Fatalf("unexpected total %d", tot)
		}
	}
}

// torqEpoch packages the Table 2 TorQ-analogue unit of work — forward with
// 3 tangent channels + adjoint backward at 7 qubits, 4 ansatz layers —
// parameterized by ansatz and circuit-execution engine for A/B benchmarks.
func torqEpoch(b *testing.B, ansatz qsim.AnsatzKind, engine qsim.EngineKind) {
	circ := ansatz.Build(7, 4)
	n := 512
	rng := rand.New(rand.NewSource(1))
	angles := make([]float64, n*7)
	tans := make([][]float64, 3)
	for k := range tans {
		tans[k] = make([]float64, n*7)
	}
	theta := make([]float64, circ.NumParams)
	for i := range angles {
		angles[i] = rng.Float64()
	}
	for i := range theta {
		theta[i] = rng.Float64()
	}
	ws := qsim.NewWorkspace(n, 7)
	pqc := &qsim.PQC{Circ: circ, Eng: engine}
	gz := make([]float64, n*7)
	dA := make([]float64, n*7)
	dT := [][]float64{make([]float64, n*7), make([]float64, n*7), make([]float64, n*7)}
	dTheta := make([]float64, circ.NumParams)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pqc.Forward(ws, angles, tans, theta)
		pqc.Backward(ws, gz, [][]float64{gz, gz, gz}, dA, dT, dTheta)
	}
	b.ReportMetric(float64(n), "points/op")
}

// BenchmarkTorqEpochSharded is the engine unit on the sharded executor over
// the compiled program (4×4 pair blocks, CNOTs tracked in the basis frame,
// the product-state embedding): the batched adjoint simulator (TorQ
// analogue) on the default engine, Table 2's TorQ column, next to the
// Table2NaiveSimulator and Table2KronSimulator comparators.
func BenchmarkTorqEpochSharded(b *testing.B) {
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineSharded)
}

// BenchmarkTorqEpochCrossMeshSharded runs the unit on the entangler-heavy
// Cross-Mesh ansatz (42 CRZs per layer), where the compiler collapses each
// layer's diagonal mesh into one full-register super-op.
func BenchmarkTorqEpochCrossMeshSharded(b *testing.B) {
	torqEpoch(b, qsim.CrossMesh, qsim.EngineSharded)
}

// distEpoch runs a torqEpoch unit on the multi-process dist engine with 2
// subprocess workers (the bench binary self-execs as its own workers). The
// measured quantity on top of the sharded engine is the transport: each
// pass is one request per worker (the pass header and the rows of every
// shard it owns) and one result frame back. Each shard's owner runs both
// halves of a step, so its backward skips the forward recompute on the
// states its forward kept; statelessness remains the recovery path — a
// dead worker's shards re-dispatch to survivors that recompute them
// bit-identically.
func distEpoch(b *testing.B, ansatz qsim.AnsatzKind) {
	dist.Configure(dist.Options{Workers: 2})
	defer dist.Shutdown()
	torqEpoch(b, ansatz, qsim.EngineDist)
}

func BenchmarkTorqEpochDist(b *testing.B) {
	distEpoch(b, qsim.StronglyEntangling)
}

// BenchmarkTorqEpochDistSerial pins ONE subprocess worker, making the unit
// machine-shape independent: each pass is one request and one reply, and
// the coordinator blocks on the reply while the worker computes, so the
// pass runs serially whether the host has 1 core or 64 — unlike the 2-worker variants, whose cost halves on
// a multi-core runner and can hide a transport regression behind that
// headroom. This is the dist row that isolates the transport.
func BenchmarkTorqEpochDistSerial(b *testing.B) {
	dist.Configure(dist.Options{Workers: 1})
	defer dist.Shutdown()
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineDist)
}

// BenchmarkTorqEpochShardedFTDC / DistSerialFTDC are the recorder-overhead
// pair: the identical Sharded / DistSerial units with the flight-data
// recorder live at its default cadence, sampling the par, qsim, and dist
// counters throughout. The FTDC-on vs FTDC-off ratio is the measured cost
// of always-on telemetry — the recorder's contract is that it is
// unmeasurable.
func BenchmarkTorqEpochShardedFTDC(b *testing.B) {
	rec := ftdc.New(ftdc.Options{}, ftdc.Standard()...)
	rec.Start()
	defer rec.Stop()
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineSharded)
}

func BenchmarkTorqEpochDistSerialFTDC(b *testing.B) {
	rec := ftdc.New(ftdc.Options{}, ftdc.Standard()...)
	rec.Start()
	defer rec.Stop()
	dist.Configure(dist.Options{Workers: 1})
	defer dist.Shutdown()
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineDist)
}

// BenchmarkTorqEpochShardedTraced / DistSerialTraced are the span-recorder
// overhead pair: the identical Sharded / DistSerial units with live span
// tracing enabled, so every pass records its compile/batch/shard/
// merge span tree into the lock-free ring (and, for the dist row, ships
// worker-side shard spans back inside result frames). The traced vs untraced
// ratio is the measured cost of the observability plane's tracing bit — the
// span ring's contract is zero steady-state allocations and sub-noise
// overhead.
func BenchmarkTorqEpochShardedTraced(b *testing.B) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineSharded)
}

func BenchmarkTorqEpochDistSerialTraced(b *testing.B) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)
	dist.Configure(dist.Options{Workers: 1})
	defer dist.Shutdown()
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineDist)
}

func BenchmarkTorqEpochCrossMeshDist(b *testing.B) {
	distEpoch(b, qsim.CrossMesh)
}
func BenchmarkTorqEpochCrossMeshCNOTDist(b *testing.B) {
	distEpoch(b, qsim.CrossMeshCNOT)
}

// BenchmarkTorqEpochCrossMeshCNOTSharded runs the unit on the all-pairs
// CNOT mesh (42 CNOTs per layer). The compiler runs none of them: it tracks
// them in the program's basis frame, so a layer is its rotation wall,
// paired into 4×4 blocks (169 → 17 instructions).
func BenchmarkTorqEpochCrossMeshCNOTSharded(b *testing.B) {
	torqEpoch(b, qsim.CrossMeshCNOT, qsim.EngineSharded)
}

// BenchmarkTorqForwardSharded isolates the forward+tangent pass
// (inference-shaped work, no adjoint).
func torqForward(b *testing.B, engine qsim.EngineKind) {
	circ := qsim.StronglyEntangling.Build(7, 4)
	n := 512
	rng := rand.New(rand.NewSource(1))
	angles := make([]float64, n*7)
	tans := make([][]float64, 3)
	for k := range tans {
		tans[k] = make([]float64, n*7)
	}
	theta := make([]float64, circ.NumParams)
	for i := range angles {
		angles[i] = rng.Float64()
	}
	for i := range theta {
		theta[i] = rng.Float64()
	}
	ws := qsim.NewWorkspace(n, 7)
	pqc := &qsim.PQC{Circ: circ, Eng: engine}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pqc.Forward(ws, angles, tans, theta)
	}
	b.ReportMetric(float64(n), "points/op")
}

func BenchmarkTorqForwardSharded(b *testing.B) { torqForward(b, qsim.EngineSharded) }

// BenchmarkTorqEpochShardedMultiWorker is the sharded unit with the worker
// bound explicitly at GOMAXPROCS. On a multi-core host it should beat
// TorqEpochSharded run under GOMAXPROCS=1; on a single-core runner the two
// read as parity.
func BenchmarkTorqEpochShardedMultiWorker(b *testing.B) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(0) // explicit: full GOMAXPROCS worker bound
	torqEpoch(b, qsim.StronglyEntangling, qsim.EngineSharded)
}

// BenchmarkTable2NaiveSimulator times the per-sample dense-gate baseline
// (the default.qubit stand-in) — the losing column of Table 2.
func BenchmarkTable2NaiveSimulator(b *testing.B) {
	circ := qsim.StronglyEntangling.Build(7, 4)
	n := 8
	rng := rand.New(rand.NewSource(2))
	angles := make([]float64, n*7)
	theta := make([]float64, circ.NumParams)
	for i := range angles {
		angles[i] = rng.Float64()
	}
	sim := &qsim.NaiveSimulator{Circ: circ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(angles, theta, n)
	}
	b.ReportMetric(float64(n), "points/op")
}

// BenchmarkTable2KronSimulator times the full-unitary composition baseline,
// the other dense column of Table 2.
func BenchmarkTable2KronSimulator(b *testing.B) {
	circ := qsim.StronglyEntangling.Build(7, 4)
	n := 2
	angles := make([]float64, n*7)
	theta := make([]float64, circ.NumParams)
	sim := &qsim.KronSimulator{Circ: circ}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(angles, theta, n)
	}
	b.ReportMetric(float64(n), "points/op")
}

// BenchmarkFig3ScalingSweep times the scaling-study kernel: analytic ⟨Z⟩
// for a batch of encoded inputs.
func BenchmarkFig3ScalingSweep(b *testing.B) {
	circ := qsim.NoEntanglement.Build(1, 0)
	angles := make([]float64, 256)
	for i := range angles {
		angles[i] = qsim.ScaleAsin.Apply(float64(i)/128 - 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qsim.EvalZ(circ, angles, nil, 256)
	}
}

// BenchmarkFig4AnsatzBuild times circuit construction for all six ansätze.
func BenchmarkFig4AnsatzBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range qsim.AllAnsatze {
			a.Build(7, 4)
		}
	}
}

// BenchmarkFig5SpectralReference times one exact-solution snapshot at the
// reference resolution used by Fig. 5.
func BenchmarkFig5SpectralReference(b *testing.B) {
	sp := refsol.NewSpectral(refsol.CenteredPulse().InitFields(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.At(1.5)
	}
}

// BenchmarkFig5PadeStep times one RK4 step of the compact-scheme reference.
func BenchmarkFig5PadeStep(b *testing.B) {
	p := refsol.NewPade(64, refsol.SmoothSlab(0.06))
	f := refsol.CenteredPulse().InitFields(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(f, 0.005)
	}
}

// BenchmarkFig6VacuumQPINNEpoch times one full QPINN training epoch of the
// vacuum ablation (the unit from which Fig. 6's runtime scales).
func BenchmarkFig6VacuumQPINNEpoch(b *testing.B) {
	r := newEpochRunner(maxwell.VacuumCase, core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos, true, 8, qsim.EngineSharded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.epoch()
	}
}

// BenchmarkFig6VacuumClassicalEpoch times the classical baseline epoch.
func BenchmarkFig6VacuumClassicalEpoch(b *testing.B) {
	r := newEpochRunner(maxwell.VacuumCase, core.ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone, false, 8, qsim.EngineSharded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.epoch()
	}
}

// BenchmarkFig8DielectricQPINNEpoch times the dielectric (region-weighted
// loss) epoch of Fig. 8.
func BenchmarkFig8DielectricQPINNEpoch(b *testing.B) {
	r := newEpochRunner(maxwell.DielectricCase, core.QPINN, qsim.NoEntanglement, qsim.ScaleAsin, false, 8, qsim.EngineSharded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.epoch()
	}
}

// BenchmarkFig10Diagnostics times the per-evaluation diagnostics of the
// black-hole study: L2/I_BH evaluation plus Meyer–Wallach on a probe batch.
func BenchmarkFig10Diagnostics(b *testing.B) {
	prob := maxwell.NewProblem(maxwell.VacuumCase)
	model := core.NewModel(core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos))
	ref := core.NewReference(prob, 12, []float64{0, 0.75, 1.5}, 32)
	st := qsim.FinalState(model.Circ, make([]float64, 64*model.Cfg.NumQubits),
		model.Quantum.Theta.W, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Evaluate(model, ref)
		qsim.MeyerWallach(st)
	}
}

// BenchmarkFig11FieldEvaluation times the field-snapshot evaluation used to
// render the collapse figure.
func BenchmarkFig11FieldEvaluation(b *testing.B) {
	model := core.NewModel(core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos))
	g := 24
	coords := make([]float64, g*g*3)
	for i := 0; i < g*g; i++ {
		coords[i*3] = float64(i%g)/float64(g)*2 - 1
		coords[i*3+1] = float64(i/g)/float64(g)*2 - 1
		coords[i*3+2] = 1.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.EvalFields(coords, g*g)
	}
}

// BenchmarkPaperInferEvalFields times the end-to-end benchmark's
// paper-infer step: one EvalFields call of the paper-scale QPINN (66,932
// parameters, Strongly Entangling, scale_acos) on a 48×48 snapshot, the
// 2304 points of one time slice. Its hidden layers are 128 wide, so their
// tanh and GEMM kernels are most of a call.
func BenchmarkPaperInferEvalFields(b *testing.B) {
	model := core.NewModel(core.PaperModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos))
	const g = 48
	coords := make([]float64, g*g*3)
	for i := 0; i < g*g; i++ {
		coords[i*3] = float64(i%g)/float64(g)*2 - 1
		coords[i*3+1] = float64(i/g)/float64(g)*2 - 1
		coords[i*3+2] = 0.75
	}
	model.EvalFields(coords, g*g) // compile the circuit and fill the tape's pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.EvalFields(coords, g*g)
	}
}

// BenchmarkFig12InitDistribution times the penultimate-activation probe of
// the initialization study.
func BenchmarkFig12InitDistribution(b *testing.B) {
	model := core.NewModel(core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleNone))
	rng := rand.New(rand.NewSource(3))
	n := 512
	coords := make([]float64, n*3)
	for i := range coords {
		coords[i] = rng.Float64()*2 - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PenultimateActivations(coords, n)
	}
}

// BenchmarkFig14AsymmetricEpoch times the appendix-case training epoch
// (no symmetry loss ⇒ two fewer forward passes than the vacuum case).
func BenchmarkFig14AsymmetricEpoch(b *testing.B) {
	r := newEpochRunner(maxwell.AsymmetricCase, core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos, true, 8, qsim.EngineSharded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.epoch()
	}
}

// BenchmarkSec51IntuitiveLossEpoch times the §5.1 variant (eq. 37 pointwise
// 1/ε weighting) against which the region-weighted loss is compared.
func BenchmarkSec51IntuitiveLossEpoch(b *testing.B) {
	r := newEpochRunner(maxwell.DielectricCase, core.QPINN, qsim.StronglyEntangling, qsim.ScaleAsin, true, 8, qsim.EngineSharded)
	r.cfg.UseIntuitive = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.epoch()
	}
}

// BenchmarkIBHIndex times the eq. 33–35 collapse-index computation.
func BenchmarkIBHIndex(b *testing.B) {
	energy := make([]float64, 1500)
	for i := range energy {
		energy[i] = 1 - float64(i)/3000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diag.IBH(energy, 1)
	}
}

// BenchmarkExtReuploadEpoch times a QPINN epoch with data re-uploading
// (§6.2(c) extension) — the embedding repeats before every ansatz layer.
func BenchmarkExtReuploadEpoch(b *testing.B) {
	prob := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	mcfg.Reupload = true
	model := core.NewModel(mcfg)
	coll := maxwell.NewCollocation(prob, 8, 5)
	cfg := maxwell.PaperConfig(true, true)
	adam := opt.NewAdam(1e-3, model.Reg.Buffers(), model.Reg.Grads)
	tape := ad.NewTape()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Reset()
		model.Reg.Bind(tape, true)
		terms := maxwell.Build(tape, model.Forward, prob, coll, cfg)
		tape.Backward(terms.Total)
		model.Reg.PullGrads()
		adam.Step()
	}
}

// BenchmarkExtBarrenPlateauProbe times one gradient-variance sample of the
// §6.2(e) probe (forward + adjoint at 7 qubits, no tangents).
func BenchmarkExtBarrenPlateauProbe(b *testing.B) {
	circ := qsim.StronglyEntangling.Build(7, 4)
	n := 8
	rng := rand.New(rand.NewSource(9))
	angles := make([]float64, n*7)
	theta := make([]float64, circ.NumParams)
	for i := range angles {
		angles[i] = rng.Float64()
	}
	qsim.InitRegular.Fill(theta, rng.Float64)
	ws := qsim.NewWorkspace(n, 7)
	pqc := &qsim.PQC{Circ: circ}
	gz := make([]float64, n*7)
	for i := 0; i < n; i++ {
		gz[i*7] = 1
	}
	dA := make([]float64, n*7)
	dTheta := make([]float64, circ.NumParams)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pqc.Forward(ws, angles, nil, theta)
		pqc.Backward(ws, gz, nil, dA, nil, dTheta)
	}
}
