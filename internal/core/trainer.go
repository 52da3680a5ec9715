package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ad"
	"repro/internal/diag"
	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/qsim"
)

// TrainConfig controls one training run.
type TrainConfig struct {
	Epochs   int
	Schedule opt.ExpDecay
	Grid     int // collocation points per coordinate (paper: 64)
	TimeBins int // temporal curriculum bins (paper: 5)
	Kappa    float64

	Loss maxwell.Config

	EvalEvery          int  // epochs between L2/energy evaluations; <= 0 evaluates only at the final epoch
	QuantumDiagnostics bool // track Meyer–Wallach during training
}

// SmokeTrain returns a laptop-scale training configuration.
func SmokeTrain(epochs int, loss maxwell.Config) TrainConfig {
	return TrainConfig{
		Epochs: epochs, Schedule: opt.PaperSchedule(), Grid: 10, TimeBins: 5,
		Kappa: 2, Loss: loss, EvalEvery: max(1, epochs/40),
	}
}

// PaperTrain returns the paper-scale configuration (§2.2): 64³ grid,
// 25 000 epochs.
func PaperTrain(loss maxwell.Config) TrainConfig {
	return TrainConfig{
		Epochs: 25000, Schedule: opt.PaperSchedule(), Grid: 64, TimeBins: 5,
		Kappa: 8, Loss: loss, EvalEvery: 250,
	}
}

// Validate reports the first setting TrainModel cannot train with: fewer
// than 2 collocation points per coordinate (the grid's spacing
// TMax/(Grid-1) is then undefined), no epoch, no curriculum bin, a negative
// or non-finite loss weight, or a non-finite curriculum sharpness or
// learning-rate schedule. A TimeBins above Grid is allowed: the surplus
// bins are empty.
func (c TrainConfig) Validate() error {
	switch {
	case c.Grid < 2:
		return fmt.Errorf("core: train config: grid %d below 2 points per coordinate", c.Grid)
	case c.Epochs < 1:
		return fmt.Errorf("core: train config: %d epochs, want at least 1", c.Epochs)
	case c.TimeBins < 1:
		return fmt.Errorf("core: train config: %d time bins, want at least 1", c.TimeBins)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{{"IC", c.Loss.WIC}, {"symmetry", c.Loss.WSym}, {"energy", c.Loss.WEnergy}} {
		if !(w.v >= 0) || math.IsInf(w.v, 1) {
			return fmt.Errorf("core: train config: %s loss weight %v, want finite and non-negative", w.name, w.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"kappa", c.Kappa}, {"learning rate", c.Schedule.LR0}, {"decay factor", c.Schedule.Factor}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: train config: %s %v, want finite", f.name, f.v)
		}
	}
	return nil
}

// EpochStats is one row of the training history.
type EpochStats struct {
	Epoch    int
	Total    float64
	Phys     float64
	IC       float64
	Sym      float64
	Energy   float64
	GradNorm float64
	GradVar  float64
	L2       float64 // NaN when not evaluated this epoch
	IBH      float64 // NaN when not evaluated
	MW       float64 // Meyer–Wallach; NaN unless quantum diagnostics enabled
}

// RunResult is the outcome of one training run.
type RunResult struct {
	History   []EpochStats
	FinalL2   float64
	FinalIBH  float64
	Collapsed bool
	Model     *Model
}

// TrainState is the mutable cross-epoch training state a warm restart needs
// beyond the parameter buffers: the Adam moments and step count, the
// temporal-curriculum weights, and the number of epochs completed (so the
// learning-rate schedule resumes instead of rewinding). TrainModel populates
// it on the model after every run and resumes from it when present;
// checkpoints persist it (version 2).
type TrainState struct {
	Opt        opt.AdamState
	Curriculum []float64
	Epochs     int
}

// Train runs the full loop: build collocation, iterate epochs (bind params,
// assemble the eq. 26 loss, backprop, Adam step, curriculum update), and
// evaluate the L2 error and black-hole index against the reference.
func Train(p maxwell.Problem, mcfg ModelConfig, tcfg TrainConfig, ref *Reference) *RunResult {
	model := NewModel(mcfg)
	return TrainModel(model, p, tcfg, ref)
}

// TrainModel trains an existing model (exposed for warm starts and tests).
// A model carrying TrainState — one previously trained in this process, or
// restored from a version-2 checkpoint — resumes with its Adam moments, step
// count, curriculum weights, and schedule position intact; a fresh model
// cold-starts all of them. It panics with TrainConfig.Validate's error on a
// config it cannot train.
func TrainModel(model *Model, p maxwell.Problem, tcfg TrainConfig, ref *Reference) *RunResult {
	if err := tcfg.Validate(); err != nil {
		panic(err)
	}
	coll := maxwell.NewCollocation(p, tcfg.Grid, tcfg.TimeBins)
	curriculum := maxwell.NewTimeCurriculum(tcfg.TimeBins, tcfg.Kappa)
	adam := opt.NewAdam(tcfg.Schedule.LR0, model.Reg.Buffers(), model.Reg.Grads)

	// Warm-restart policy: optimizer state must match the model's parameter
	// shapes — a mismatch cannot come from Load (which validates against the
	// rebuilt model), only from hand-built state, so it fails loudly.
	// Curriculum weights, by contrast, legitimately stop applying when the
	// new run changes TimeBins (old per-bin weights are meaningless for a
	// different binning), so that case deliberately cold-starts instead.
	startEpoch := 0
	if st := model.TrainState; st != nil {
		if st.Opt.M != nil {
			if err := adam.Restore(st.Opt); err != nil {
				panic(fmt.Sprintf("core: warm restart with mismatched optimizer state: %v", err))
			}
		}
		if len(st.Curriculum) == tcfg.TimeBins {
			if err := curriculum.Restore(st.Curriculum); err != nil {
				panic(fmt.Sprintf("core: warm restart curriculum: %v", err)) // unreachable: length checked above
			}
		}
		startEpoch = st.Epochs
	}

	res := &RunResult{Model: model}
	tp := ad.NewTape()

	// Fixed probe set for Meyer–Wallach tracking.
	var mwProbe []float64
	if tcfg.QuantumDiagnostics && model.Quantum != nil {
		rng := rand.New(rand.NewSource(977))
		mwProbe = make([]float64, 64*3)
		for i := range mwProbe {
			mwProbe[i] = rng.Float64()*2 - 1
		}
	}

	for epoch := 0; epoch < tcfg.Epochs; epoch++ {
		epochStart := time.Now()
		adam.LR = tcfg.Schedule.At(startEpoch + epoch)

		cfg := tcfg.Loss
		if !curriculum.Converged(1e-3) {
			cfg.TimeWeights = curriculum.Weights()
		}

		tp.Reset()
		model.Reg.Bind(tp, true)
		terms := maxwell.Build(tp, model.Forward, p, coll, cfg)
		tp.Backward(terms.Total)
		model.Reg.PullGrads()
		adam.Step()
		curriculum.Update(terms.BinResiduals)

		st := EpochStats{
			Epoch: startEpoch + epoch,
			Total: terms.Total.Scalar(),
			Phys:  terms.Phys.Scalar(),
			IC:    terms.IC.Scalar(),
			L2:    math.NaN(), IBH: math.NaN(), MW: math.NaN(),
		}
		if terms.Sym.Valid() {
			st.Sym = terms.Sym.Scalar()
		}
		if terms.Energy.Valid() {
			st.Energy = terms.Energy.Scalar()
		}
		st.GradNorm, st.GradVar = model.Reg.GradNormAndVar()

		// EvalEvery <= 0 (a hand-built config) means "evaluate only at the
		// final epoch" — the modulo below would otherwise divide by zero.
		evalNow := epoch == tcfg.Epochs-1 || (tcfg.EvalEvery > 0 && epoch%tcfg.EvalEvery == 0)
		if ref != nil && evalNow {
			st.L2, st.IBH = Evaluate(model, ref)
		}
		if mwProbe != nil && evalNow {
			st.MW = modelMeyerWallach(model, mwProbe, 64)
		}
		res.History = append(res.History, st)
		qsim.RecordEpoch(time.Since(epochStart))
	}

	model.TrainState = &TrainState{
		Opt:        adam.Export(),
		Curriculum: append([]float64(nil), curriculum.Weights()...),
		Epochs:     startEpoch + tcfg.Epochs,
	}

	if ref != nil {
		res.FinalL2, res.FinalIBH = Evaluate(model, ref)
		res.Collapsed = diag.Collapsed(res.FinalIBH)
	}
	return res
}

// Evaluate computes the L2 error (eq. 32) and the black-hole index I_BH
// (eq. 35) of the model against the reference probe set.
func Evaluate(model *Model, ref *Reference) (l2, ibh float64) {
	n := len(ref.Ez)
	ez, hx, hy := model.EvalFields(ref.Coords, n)
	l2 = ref.L2Of(ez)
	energy := ref.EnergySeries(ez, hx, hy)
	ibh = diag.IBH(energy, 1)
	return
}

// modelMeyerWallach runs the quantum layer's circuit on the activations the
// network currently feeds it at a fixed probe batch.
func modelMeyerWallach(model *Model, probe []float64, n int) float64 {
	// Forward up to (and including) the adapter, then scale and run the
	// circuit directly.
	tp := ad.NewTape()
	model.Reg.Bind(tp, false)
	acts := model.PenultimateQuantumAngles(tp, probe, n)
	st := qsim.FinalState(model.Circ, acts, model.Quantum.Theta.W, n)
	return qsim.MeyerWallach(st)
}
