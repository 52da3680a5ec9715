package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// trajectoryHash trains mcfg on p for the given epochs and returns an FNV-1a
// hash over every epoch's loss terms and gradient statistics, then every bit
// of the final parameters and of the optimizer's moment estimates.
func trajectoryHash(p maxwell.Problem, mcfg ModelConfig, epochs int) uint64 {
	tcfg := SmokeTrain(epochs, maxwell.PaperConfig(true, true))
	tcfg.Grid = 6
	res := TrainModel(NewModel(mcfg), p, tcfg, nil)
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, st := range res.History {
		for _, v := range []float64{st.Total, st.Phys, st.IC, st.Sym, st.Energy, st.GradNorm, st.GradVar} {
			put(v)
		}
	}
	for _, prm := range res.Model.Reg.Params {
		for _, w := range prm.W {
			put(w)
		}
	}
	// Adam's moments hold every step's gradient at full precision, where a
	// parameter rounds away an update's last bits.
	for _, moments := range [][][]float64{res.Model.TrainState.Opt.M, res.Model.TrainState.Opt.V} {
		for _, buf := range moments {
			for _, v := range buf {
				put(v)
			}
		}
	}
	return h.Sum64()
}

// TestTrainingTrajectoryPinned pins whole smoke trainings bit for bit: the
// loss of every epoch and every final parameter of five models that between
// them run every dual activation (tanh, the Fourier-feature input embedding, arcsin and
// arccosine angle scaling, the cosine trig control) through the tape's
// forward and backward. qpinn7-asin-dielectric is the bench's 7-qubit,
// 4-layer Strongly-Entangling model, whose CNOTs the compiler tracks in
// the program's frame instead of running them and whose first rotation
// layer folds into the product-state embedding; it trains for fewer epochs
// to keep the test short. A kernel or tape change that alters any rounding anywhere in
// a step changes a hash. The constants are only valid where the
// compiler emits no fused multiply-add, so the test runs on amd64 alone
// (ROADMAP, "Portable bit-identity").
func TestTrainingTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip(`trajectory hashes are recorded for amd64 rounding; see ROADMAP, "Portable bit-identity"`)
	}
	vac := maxwell.NewSmokeProblem(maxwell.VacuumCase)
	diel := maxwell.NewSmokeProblem(maxwell.DielectricCase)
	qpinn7 := SmokeModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAsin)
	qpinn7.NumQubits, qpinn7.QLayers = 7, 4
	cases := []struct {
		name   string
		p      maxwell.Problem
		cfg    ModelConfig
		epochs int
		want   uint64
	}{
		{"classical-vacuum", vac, SmokeModel(ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone), 12, 0xfd7e2c9856feaa9e},
		{"qpinn-acos-vacuum", vac, SmokeModel(QPINN, qsim.CrossMesh, qsim.ScaleAcos), 12, 0xc2028cc717e8fc6},
		{"qpinn-asin-dielectric", diel, SmokeModel(QPINN, qsim.BasicEntangling, qsim.ScaleAsin), 12, 0x513c63537fdf4958},
		{"trig-asin-vacuum", vac, SmokeModel(ClassicalTrig, qsim.BasicEntangling, qsim.ScaleAsin), 12, 0xe65b869589d5e14b},
		{"qpinn7-asin-dielectric", diel, qpinn7, 4, 0x8f66a140f85bcb92},
	}
	for _, c := range cases {
		if got := trajectoryHash(c.p, c.cfg, c.epochs); got != c.want {
			t.Errorf("%s: trajectory hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
