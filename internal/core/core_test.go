package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/qsim"
	"repro/internal/refsol"
)

// TestTable1ParameterCounts reproduces the paper's Table 1 digit-for-digit
// at paper scale (Hidden=128, RFF=128, 7 qubits, 4 layers).
func TestTable1ParameterCounts(t *testing.T) {
	cases := []struct {
		arch               Arch
		ansatz             qsim.AnsatzKind
		classical, quantum int
	}{
		{ClassicalRegular, qsim.BasicEntangling, 82820, 0},
		{ClassicalReduced, qsim.BasicEntangling, 66308, 0},
		{ClassicalExtra, qsim.BasicEntangling, 99332, 0},
		{QPINN, qsim.CrossMesh, 66848, 196},
		{QPINN, qsim.CrossMesh2Rot, 66848, 224},
		{QPINN, qsim.CrossMeshCNOT, 66848, 84},
		{QPINN, qsim.NoEntanglement, 66848, 84},
		{QPINN, qsim.BasicEntangling, 66848, 84},
		{QPINN, qsim.StronglyEntangling, 66848, 84},
	}
	for _, c := range cases {
		m := NewModel(PaperModel(c.arch, c.ansatz, qsim.ScaleAsin))
		cl, qu, tot := m.ParamCounts()
		if cl != c.classical || qu != c.quantum {
			t.Errorf("%v/%v: got %d classical + %d quantum, want %d + %d",
				c.arch, c.ansatz, cl, qu, c.classical, c.quantum)
		}
		if tot != c.classical+c.quantum {
			t.Errorf("%v: total %d inconsistent", c.arch, tot)
		}
	}
}

// TestClassicalTrainingReducesLoss: a short classical run must cut the total
// loss substantially and beat an untrained model on L2.
func TestClassicalTrainingReducesLoss(t *testing.T) {
	p := maxwell.NewProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone)
	mcfg.Seed = 7
	tcfg := SmokeTrain(60, maxwell.PaperConfig(false, true))
	tcfg.Grid = 8
	ref := NewReference(p, 12, []float64{0, 0.5, 1.0, 1.5}, 32)

	before := NewModel(mcfg)
	l2Before, _ := Evaluate(before, ref)

	res := Train(p, mcfg, tcfg, ref)
	first := res.History[0].Total
	last := res.History[len(res.History)-1].Total
	if last >= first*0.5 {
		t.Fatalf("loss did not halve: %v → %v", first, last)
	}
	if res.FinalL2 >= l2Before {
		t.Fatalf("L2 did not improve: %v → %v", l2Before, res.FinalL2)
	}
}

// TestQuantumTrainingRuns: the QPINN path must train end-to-end (loss drops)
// with every tangent channel flowing through the PQC.
func TestQuantumTrainingRuns(t *testing.T) {
	p := maxwell.NewProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	mcfg.Seed = 3
	tcfg := SmokeTrain(25, maxwell.PaperConfig(true, true))
	tcfg.Grid = 6
	tcfg.QuantumDiagnostics = true
	ref := NewReference(p, 8, []float64{0, 0.75, 1.5}, 32)

	res := Train(p, mcfg, tcfg, ref)
	first := res.History[0].Total
	last := res.History[len(res.History)-1].Total
	if !(last < first) {
		t.Fatalf("QPINN loss did not decrease: %v → %v", first, last)
	}
	if math.IsNaN(res.FinalL2) || math.IsInf(res.FinalL2, 0) {
		t.Fatalf("bad final L2 %v", res.FinalL2)
	}
	// Meyer–Wallach was tracked and lies in [0, 1].
	foundMW := false
	for _, st := range res.History {
		if !math.IsNaN(st.MW) {
			foundMW = true
			if st.MW < -1e-9 || st.MW > 1+1e-9 {
				t.Fatalf("MW out of range: %v", st.MW)
			}
		}
	}
	if !foundMW {
		t.Fatal("quantum diagnostics never recorded")
	}
}

// TestDielectricTrainingRuns: region-weighted loss path end-to-end.
func TestDielectricTrainingRuns(t *testing.T) {
	p := maxwell.NewProblem(maxwell.DielectricCase)
	mcfg := SmokeModel(ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone)
	tcfg := SmokeTrain(30, maxwell.PaperConfig(false, true))
	tcfg.Grid = 6
	ref := NewReference(p, 8, []float64{0, 0.35, 0.7}, 32)
	res := Train(p, mcfg, tcfg, ref)
	if !(res.History[len(res.History)-1].Total < res.History[0].Total) {
		t.Fatal("dielectric training did not reduce loss")
	}
}

// TestEvaluateOnExactReference: a hypothetical perfect model (the reference
// itself) has L2 = 0 and I_BH ≈ 0 — anchor for the metrics.
func TestEvaluateOnExactReference(t *testing.T) {
	p := maxwell.NewProblem(maxwell.VacuumCase)
	ref := NewReference(p, 10, []float64{0, 0.4, 0.8}, 32)
	if l2 := ref.L2Of(ref.Ez); l2 != 0 {
		t.Fatalf("reference self-L2 = %v", l2)
	}
	// Reference energy is conserved: I_BH on the reference series ≈ 0.
	if len(ref.RefEnergy) > 0 {
		min := ref.RefEnergy[0]
		for _, u := range ref.RefEnergy {
			if u < min {
				min = u
			}
		}
		if 1-min/ref.RefEnergy[0] > 0.05 {
			t.Fatalf("reference energy not conserved: %v", ref.RefEnergy)
		}
	}
}

// TestSeedDeterminism: identical seeds give identical models and training.
func TestSeedDeterminism(t *testing.T) {
	mcfg := SmokeModel(QPINN, qsim.CrossMesh, qsim.ScaleNone)
	mcfg.Seed = 11
	a := NewModel(mcfg)
	b := NewModel(mcfg)
	for i := range a.Reg.Params {
		pa, pb := a.Reg.Params[i], b.Reg.Params[i]
		for j := range pa.W {
			if math.Float64bits(pa.W[j]) != math.Float64bits(pb.W[j]) {
				t.Fatalf("seeded init differs at %s[%d]", pa.Name, j)
			}
		}
	}
	mcfg.Seed = 12
	c := NewModel(mcfg)
	same := true
	for i := range a.Reg.Params {
		pa, pc := a.Reg.Params[i], c.Reg.Params[i]
		for j := range pa.W {
			if math.Float64bits(pa.W[j]) != math.Float64bits(pc.W[j]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical parameters")
	}
}

// TestPenultimateActivations: classical nets expose tanh outputs in [−1,1];
// QPINNs expose Pauli-Z expectations in [−1,1].
func TestPenultimateActivations(t *testing.T) {
	coords := []float64{0.1, -0.2, 0.3, -0.4, 0.5, 0.6}
	for _, arch := range []Arch{ClassicalRegular, QPINN} {
		m := NewModel(SmokeModel(arch, qsim.StronglyEntangling, qsim.ScaleNone))
		acts := m.PenultimateActivations(coords, 2)
		for i, a := range acts {
			if a < -1-1e-9 || a > 1+1e-9 {
				t.Fatalf("%v activation[%d] = %v out of [−1,1]", arch, i, a)
			}
		}
	}
}

// TestCheckpointRoundTrip: a trained model restored from its checkpoint
// produces bit-identical predictions.
func TestCheckpointRoundTrip(t *testing.T) {
	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(QPINN, qsim.CrossMesh2Rot, qsim.ScaleAsin)
	mcfg.Seed = 99
	tcfg := SmokeTrain(5, maxwell.PaperConfig(true, true))
	tcfg.Grid = 5
	res := Train(p, mcfg, tcfg, nil)

	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	coords := []float64{0.1, -0.4, 0.7, -0.6, 0.2, 1.1}
	a, _, _ := res.Model.EvalFields(coords, 2)
	b, _, _ := restored.EvalFields(coords, 2)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("prediction %d differs after reload: %v vs %v", i, a[i], b[i])
		}
	}
	// Truncated stream must fail loudly, not load garbage.
	if _, err := Load(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
}

// TestTrainEvalEveryZero: a hand-built TrainConfig that leaves EvalEvery at
// its zero value used to crash on epoch%EvalEvery; it must instead train and
// evaluate only at the final epoch.
func TestTrainEvalEveryZero(t *testing.T) {
	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(ClassicalReduced, qsim.BasicEntangling, qsim.ScaleNone)
	tcfg := TrainConfig{
		Epochs: 3, Schedule: opt.PaperSchedule(), Grid: 4, TimeBins: 2,
		Kappa: 2, Loss: maxwell.PaperConfig(false, true),
		// EvalEvery deliberately left zero.
	}
	ref := NewReference(p, 6, []float64{0, 0.75}, 32)
	res := Train(p, mcfg, tcfg, ref)
	for i, st := range res.History[:len(res.History)-1] {
		if !math.IsNaN(st.L2) {
			t.Errorf("epoch %d evaluated L2 (%v) despite EvalEvery=0", i, st.L2)
		}
	}
	if last := res.History[len(res.History)-1]; math.IsNaN(last.L2) {
		t.Error("final epoch not evaluated under EvalEvery=0")
	}
}

// TestTrainConfigValidate pins the training settings TrainModel refuses: a
// grid of 0 or less used to panic in the collocation build, a grid of 1
// trained on NaN coordinates, and 0 or fewer epochs reported an infinite or
// negative time per epoch. A negative or non-finite loss weight, and a
// non-finite kappa, learning rate or decay factor, would train on a loss or
// step that is not the one asked for. More time bins than grid points is
// legal, and so are zero loss weights.
func TestTrainConfigValidate(t *testing.T) {
	smoke := SmokeTrain(10, maxwell.PaperConfig(true, true))
	cases := []struct {
		name, want string // want is "" for a valid config
		edit       func(*TrainConfig)
	}{
		{"smoke", "", func(*TrainConfig) {}},
		{"paper", "", func(c *TrainConfig) { *c = PaperTrain(c.Loss) }},
		{"grid 2", "", func(c *TrainConfig) { c.Grid = 2 }},
		{"more bins than points", "", func(c *TrainConfig) { c.Grid, c.TimeBins = 4, 5 }},
		{"one epoch", "", func(c *TrainConfig) { c.Epochs = 1 }},
		{"grid 1", "grid 1 below 2", func(c *TrainConfig) { c.Grid = 1 }},
		{"grid 0", "grid 0 below 2", func(c *TrainConfig) { c.Grid = 0 }},
		{"negative grid", "grid -1 below 2", func(c *TrainConfig) { c.Grid = -1 }},
		{"no epochs", "0 epochs", func(c *TrainConfig) { c.Epochs = 0 }},
		{"negative epochs", "-1 epochs", func(c *TrainConfig) { c.Epochs = -1 }},
		{"no time bins", "0 time bins", func(c *TrainConfig) { c.TimeBins = 0 }},
		{"negative time bins", "-3 time bins", func(c *TrainConfig) { c.TimeBins = -3 }},
		{"zero loss weights", "", func(c *TrainConfig) { c.Loss.WIC, c.Loss.WSym, c.Loss.WEnergy = 0, 0, 0 }},
		{"negative IC weight", "IC loss weight -1", func(c *TrainConfig) { c.Loss.WIC = -1 }},
		{"NaN IC weight", "IC loss weight NaN", func(c *TrainConfig) { c.Loss.WIC = math.NaN() }},
		{"negative symmetry weight", "symmetry loss weight -0.5", func(c *TrainConfig) { c.Loss.WSym = -0.5 }},
		{"Inf symmetry weight", "symmetry loss weight +Inf", func(c *TrainConfig) { c.Loss.WSym = math.Inf(1) }},
		{"negative energy weight", "energy loss weight -10", func(c *TrainConfig) { c.Loss.WEnergy = -10 }},
		{"NaN energy weight", "energy loss weight NaN", func(c *TrainConfig) { c.Loss.WEnergy = math.NaN() }},
		{"-Inf energy weight", "energy loss weight -Inf", func(c *TrainConfig) { c.Loss.WEnergy = math.Inf(-1) }},
		{"NaN kappa", "kappa NaN", func(c *TrainConfig) { c.Kappa = math.NaN() }},
		{"Inf kappa", "kappa +Inf", func(c *TrainConfig) { c.Kappa = math.Inf(1) }},
		{"NaN learning rate", "learning rate NaN", func(c *TrainConfig) { c.Schedule.LR0 = math.NaN() }},
		{"-Inf learning rate", "learning rate -Inf", func(c *TrainConfig) { c.Schedule.LR0 = math.Inf(-1) }},
		{"NaN decay factor", "decay factor NaN", func(c *TrainConfig) { c.Schedule.Factor = math.NaN() }},
		{"Inf decay factor", "decay factor +Inf", func(c *TrainConfig) { c.Schedule.Factor = math.Inf(1) }},
	}
	for _, c := range cases {
		cfg := smoke
		c.edit(&cfg)
		err := cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// TrainModel refuses before building anything, with the same error.
	bad := smoke
	bad.Grid = 0
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != bad.Validate().Error() {
			t.Errorf("TrainModel with grid 0 panicked with %v, want %v", r, bad.Validate())
		}
	}()
	TrainModel(NewModel(SmokeModel(ClassicalRegular, qsim.CrossMesh, qsim.ScaleAcos)), maxwell.NewSmokeProblem(maxwell.VacuumCase), bad, nil)
}

// TestWarmRestartEquivalence: training k1 epochs, checkpointing, and resuming
// from the restored model must match continuing the in-memory model
// bit-for-bit — i.e. the checkpoint carries the Adam moments, step count,
// schedule position, and curriculum weights, not just the parameters. The
// worker bound is pinned to 1 so both continuations see identical
// floating-point reduction orders.
func TestWarmRestartEquivalence(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(1)

	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	mcfg.Seed = 21
	phase1 := SmokeTrain(6, maxwell.PaperConfig(false, true))
	phase1.Grid = 4
	phase2 := SmokeTrain(4, maxwell.PaperConfig(false, true))
	phase2.Grid = 4

	model := NewModel(mcfg)
	TrainModel(model, p, phase1, nil)
	if model.TrainState == nil || model.TrainState.Opt.Step != 6 || model.TrainState.Epochs != 6 {
		t.Fatalf("training did not record state: %+v", model.TrainState)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TrainState == nil || restored.TrainState.Opt.Step != 6 {
		t.Fatalf("checkpoint dropped optimizer state: %+v", restored.TrainState)
	}

	resMem := TrainModel(model, p, phase2, nil)
	resCkpt := TrainModel(restored, p, phase2, nil)

	for i := range model.Reg.Params {
		a, b := model.Reg.Params[i], restored.Reg.Params[i]
		for j := range a.W {
			if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
				t.Fatalf("resumed parameter %s[%d] differs: %v vs %v", a.Name, j, a.W[j], b.W[j])
			}
		}
	}
	for i := range resMem.History {
		if math.Float64bits(resMem.History[i].Total) != math.Float64bits(resCkpt.History[i].Total) {
			t.Fatalf("epoch %d loss differs after restore: %v vs %v",
				i, resMem.History[i].Total, resCkpt.History[i].Total)
		}
		// The resumed history continues the global epoch numbering.
		if want := 6 + i; resMem.History[i].Epoch != want {
			t.Fatalf("resumed epoch numbered %d, want %d", resMem.History[i].Epoch, want)
		}
	}
}

// TestWarmRestartChangesFirstStep guards the original bug directly: the
// first post-restore update must use the restored Adam moments, so it must
// differ from the update a cold optimizer would take from the same
// parameters.
func TestWarmRestartChangesFirstStep(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(1)

	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(ClassicalReduced, qsim.BasicEntangling, qsim.ScaleNone)
	mcfg.Seed = 5
	phase1 := SmokeTrain(5, maxwell.PaperConfig(false, true))
	phase1.Grid = 4
	phase2 := SmokeTrain(1, maxwell.PaperConfig(false, true))
	phase2.Grid = 4

	model := NewModel(mcfg)
	TrainModel(model, p, phase1, nil)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cold.TrainState = nil // simulate the old parameters-only restore

	TrainModel(warm, p, phase2, nil)
	TrainModel(cold, p, phase2, nil)
	same := true
	for i := range warm.Reg.Params {
		a, b := warm.Reg.Params[i], cold.Reg.Params[i]
		for j := range a.W {
			if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("warm and cold restarts took identical first steps — optimizer state had no effect")
	}
}

// TestCheckpointV1StillLoads: a parameters-only stream in the pre-version
// layout (no Version/opt fields) must still load — with no training state
// attached — so existing checkpoints survive the format change.
func TestCheckpointV1StillLoads(t *testing.T) {
	mcfg := SmokeModel(ClassicalReduced, qsim.BasicEntangling, qsim.ScaleNone)
	mcfg.Seed = 17
	model := NewModel(mcfg)

	// Encode the historical struct shape: Cfg + Params only.
	v1 := struct {
		Cfg    ModelConfig
		Params map[string][]float64
	}{Cfg: mcfg, Params: map[string][]float64{}}
	for _, p := range model.Reg.Params {
		v1.Params[p.Name] = append([]float64(nil), p.W...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v1); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatalf("v1 checkpoint failed to load: %v", err)
	}
	if restored.TrainState != nil {
		t.Fatal("v1 checkpoint conjured optimizer state from nowhere")
	}
	coords := []float64{0.2, -0.1, 0.4, -0.3, 0.6, 0.9}
	a, _, _ := model.EvalFields(coords, 2)
	b, _, _ := restored.EvalFields(coords, 2)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("v1-restored prediction %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTrigControlArchitecture: the §6.2(b) control has the QPINN's
// classical parameter count exactly (PQC params replaced by zero).
func TestTrigControlArchitecture(t *testing.T) {
	m := NewModel(PaperModel(ClassicalTrig, qsim.StronglyEntangling, qsim.ScaleAcos))
	cl, qu, _ := m.ParamCounts()
	if cl != 66848 || qu != 0 {
		t.Fatalf("trig control params %d/%d, want 66848/0", cl, qu)
	}
	// It must also train (loss decreases).
	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(ClassicalTrig, qsim.StronglyEntangling, qsim.ScaleAcos)
	tcfg := SmokeTrain(20, maxwell.PaperConfig(false, true))
	tcfg.Grid = 5
	res := Train(p, mcfg, tcfg, nil)
	if !(res.History[len(res.History)-1].Total < res.History[0].Total) {
		t.Fatal("trig control did not train")
	}
}

// TestBilinearSamplerAnchors: sampling exactly at grid nodes returns grid
// values; sampling respects periodic wrap at the domain edge.
func TestBilinearSamplerAnchors(t *testing.T) {
	n := 8
	f := refsol.NewFields(n)
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			f.Ez[iy*n+ix] = float64(iy*n + ix)
		}
	}
	for _, probe := range [][2]int{{0, 0}, {3, 5}, {7, 7}} {
		iy, ix := probe[0], probe[1]
		got := sampleBilinear(f, refsol.Coord(ix, n), refsol.Coord(iy, n))
		want := f.Ez[iy*n+ix]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("node (%d,%d): %v want %v", iy, ix, got, want)
		}
	}
	// A point beyond the last node interpolates toward the periodic image.
	x := refsol.Coord(n-1, n) + 0.5*refsol.L/float64(n)
	got := sampleBilinear(f, x, refsol.Coord(0, n))
	want := 0.5*f.Ez[n-1] + 0.5*f.Ez[0]
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("periodic wrap: %v want %v", got, want)
	}
}

// TestReferenceCoordsLayout: the probe set enumerates each time slice as a
// full spatial grid, matching EnergySeries' slice bookkeeping.
func TestReferenceCoordsLayout(t *testing.T) {
	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	times := []float64{0, 0.5, 1.0}
	g := 6
	ref := NewReference(p, g, times, 32)
	if ref.PerSlice != g*g || len(ref.Ez) != g*g*len(times) {
		t.Fatalf("layout: PerSlice=%d len=%d", ref.PerSlice, len(ref.Ez))
	}
	for s, tt := range times {
		for j := 0; j < ref.PerSlice; j++ {
			if math.Float64bits(ref.Coords[(s*ref.PerSlice+j)*3+2]) != math.Float64bits(tt) {
				t.Fatalf("slice %d point %d has t=%v want %v", s, j,
					ref.Coords[(s*ref.PerSlice+j)*3+2], tt)
			}
		}
	}
	// The t=0 slice of the reference is the initial condition.
	for j := 0; j < ref.PerSlice; j++ {
		x, y := ref.Coords[j*3], ref.Coords[j*3+1]
		if math.Abs(ref.Ez[j]-p.Pulse.At(x, y)) > 0.02 {
			t.Fatalf("IC slice mismatch at %d: %v vs %v", j, ref.Ez[j], p.Pulse.At(x, y))
		}
	}
}

// TestDefaultTrainerWorkerCountIndependent pins what the default engine
// buys the trainer: a zero-value ModelConfig.Engine (sharded) reduces every
// gradient per shard in shard order, so the whole training trajectory — the
// per-epoch history and the final weights — is bit-identical for any worker
// bound, not merely close.
func TestDefaultTrainerWorkerCountIndependent(t *testing.T) {
	defer par.SetMaxWorkers(0)
	p := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	mcfg := SmokeModel(QPINN, qsim.CrossMesh, qsim.ScaleAcos)
	mcfg.Seed = 5
	if mcfg.Engine != qsim.EngineSharded {
		t.Fatalf("test premise broken: smoke model engine %v, want the zero value (sharded)", mcfg.Engine)
	}
	tcfg := SmokeTrain(4, maxwell.PaperConfig(true, true))
	tcfg.Grid = 6

	type run struct {
		hist    []uint64
		weights []uint64
	}
	train := func(workers int) run {
		par.SetMaxWorkers(workers)
		res := TrainModel(NewModel(mcfg), p, tcfg, nil)
		var r run
		for _, h := range res.History {
			r.hist = append(r.hist, uint64(h.Epoch))
			for _, v := range []float64{h.Total, h.Phys, h.IC, h.Sym, h.Energy, h.GradNorm, h.GradVar, h.L2, h.IBH, h.MW} {
				r.hist = append(r.hist, math.Float64bits(v))
			}
		}
		for _, prm := range res.Model.Reg.Params {
			for _, w := range prm.W {
				r.weights = append(r.weights, math.Float64bits(w))
			}
		}
		return r
	}
	ref := train(1)
	if len(ref.hist) == 0 || len(ref.weights) == 0 {
		t.Fatal("training produced no history or weights")
	}
	for _, workers := range []int{2, 4} {
		got := train(workers)
		if len(got.hist) != len(ref.hist) || len(got.weights) != len(ref.weights) {
			t.Fatalf("workers=%d: history/weights shape differs from 1 worker", workers)
		}
		for i := range ref.hist {
			if got.hist[i] != ref.hist[i] {
				t.Fatalf("workers=%d: history word %d differs from 1 worker", workers, i)
			}
		}
		for i := range ref.weights {
			if got.weights[i] != ref.weights[i] {
				t.Fatalf("workers=%d: final weight %d differs from 1 worker: %v vs %v",
					workers, i, math.Float64frombits(got.weights[i]), math.Float64frombits(ref.weights[i]))
			}
		}
	}
}
