package main

import (
	"math"
	"time"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/qsim"
)

// trainer runs core.TrainModel's loop one epoch at a time: the same public
// calls in the same order, so the benchmark can time each layer call from
// outside the program. TestLoopMatchesTrainModel pins its History to
// TrainModel's bit for bit. Warm restarts and the Meyer–Wallach diagnostics
// are not mirrored: the benchmark always trains a fresh model with
// diagnostics off.
type trainer struct {
	model *core.Model
	p     maxwell.Problem
	coll  *maxwell.Collocation
	tcfg  core.TrainConfig
	ref   *core.Reference

	tp    *ad.Tape
	adam  *opt.Adam
	cur   *maxwell.TimeCurriculum
	epoch int
}

func newTrainer(model *core.Model, p maxwell.Problem, coll *maxwell.Collocation, tcfg core.TrainConfig, ref *core.Reference) *trainer {
	return &trainer{
		model: model, p: p, coll: coll, tcfg: tcfg, ref: ref,
		tp:   ad.NewTape(),
		adam: opt.NewAdam(tcfg.Schedule.LR0, model.Reg.Buffers(), model.Reg.Grads),
		cur:  maxwell.NewTimeCurriculum(tcfg.TimeBins, tcfg.Kappa),
	}
}

// step trains one epoch. It evaluates L2 every EvalEvery epochs and at the
// last epoch of the budget, as TrainModel does, and then reports how long the
// evaluation took (zero when it did not evaluate). pr, when non-nil, times
// the layer calls.
func (t *trainer) step(pr *probe) (st core.EpochStats, evalTime time.Duration) {
	start := time.Now()
	epoch := t.epoch
	t.epoch++
	t.adam.LR = t.tcfg.Schedule.At(epoch)

	cfg := t.tcfg.Loss
	if !t.cur.Converged(1e-3) {
		cfg.TimeWeights = t.cur.Weights()
	}

	t.tp.Reset()
	t.model.Reg.Bind(t.tp, true)
	pr.begin(phaseBuild)
	terms := maxwell.Build(t.tp, t.model.Forward, t.p, t.coll, cfg)
	pr.end(phaseBuild)
	pr.tapeNodes(t.tp.Len())
	pr.begin(phaseBackward)
	t.tp.Backward(terms.Total)
	pr.end(phaseBackward)
	t.model.Reg.PullGrads()
	pr.begin(phaseOpt)
	t.adam.Step()
	pr.end(phaseOpt)
	t.cur.Update(terms.BinResiduals)

	st = core.EpochStats{
		Epoch: epoch,
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
	st.GradNorm, st.GradVar = t.model.Reg.GradNormAndVar()

	if epoch == t.tcfg.Epochs-1 || (t.tcfg.EvalEvery > 0 && epoch%t.tcfg.EvalEvery == 0) {
		pr.begin(phaseEval)
		e0 := time.Now()
		st.L2, st.IBH = core.Evaluate(t.model, t.ref)
		evalTime = time.Since(e0)
		pr.end(phaseEval)
	}
	qsim.RecordEpoch(time.Since(start))
	return st, evalTime
}
