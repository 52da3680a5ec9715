package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// TestLoopMatchesTrainModel pins the benchmark's mirrored training loop to
// the trainer users run: 10 epochs of vacuum-qpinn on EngineSharded (whose
// results do not depend on the worker count) must give a History
// bit-identical to core.TrainModel's — every loss term, the gradient norm
// and variance, and L2/I_BH at the evaluated epochs. Odd epochs run under
// the traced probe, so the instrumentation is pinned bit-invisible too.
func TestLoopMatchesTrainModel(t *testing.T) {
	w, err := lookupWorkloads("vacuum-qpinn")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := w[0].model()
	mcfg.Engine = qsim.EngineSharded
	tcfg := w[0].trainConfig()
	tcfg.Epochs = 10
	p := maxwell.NewSmokeProblem(w[0].problem)
	ref := core.NewReference(p, 12, linspace(0, p.TMax, 5), 64)

	want := core.TrainModel(core.NewModel(mcfg), p, tcfg, ref).History

	tr := newTrainer(core.NewModel(mcfg), p, maxwell.NewCollocation(p, tcfg.Grid, tcfg.TimeBins), tcfg, ref)
	ls := newLayerStats(w[0], false)
	for i := 0; i < tcfg.Epochs; i++ {
		var pr *probe
		if i%2 == 1 {
			pr = ls.beginStep()
		}
		start := time.Now()
		got, _ := tr.step(pr)
		if pr != nil {
			if err := ls.endStep(pr, "epoch", start, time.Now(), time.Since(start)); err != nil {
				t.Fatal(err)
			}
		}
		if diff := historyDiff(got, want[i]); diff != "" {
			t.Fatalf("epoch %d: %s differs from core.TrainModel", i, diff)
		}
	}
}

// historyDiff names the first EpochStats field whose bits differ.
func historyDiff(a, b core.EpochStats) string {
	if a.Epoch != b.Epoch {
		return "Epoch"
	}
	for _, f := range []struct {
		name string
		a, b float64
	}{
		{"Total", a.Total, b.Total}, {"Phys", a.Phys, b.Phys}, {"IC", a.IC, b.IC},
		{"Sym", a.Sym, b.Sym}, {"Energy", a.Energy, b.Energy},
		{"GradNorm", a.GradNorm, b.GradNorm}, {"GradVar", a.GradVar, b.GradVar},
		{"L2", a.L2, b.L2}, {"IBH", a.IBH, b.IBH}, {"MW", a.MW, b.MW},
	} {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return f.name
		}
	}
	return ""
}

// TestShuffleCollocationIsAReordering checks the seed's only effect on a
// training workload: the shuffled set holds the same points with the same
// regions, time bins, mirror partners and initial-condition targets, and
// the first-epoch loss agrees with the unshuffled one to rounding.
func TestShuffleCollocationIsAReordering(t *testing.T) {
	for _, c := range []maxwell.Case{maxwell.VacuumCase, maxwell.DielectricCase} {
		p := maxwell.NewSmokeProblem(c)
		orig := maxwell.NewCollocation(p, 6, 5)
		sh := shuffleCollocation(orig, rand.New(rand.NewSource(7)))

		row := map[[3]float64]int{}
		for i := 0; i < orig.N; i++ {
			row[[3]float64(orig.Coords[3*i:3*i+3])] = i
		}
		diel := map[int]bool{}
		for _, i := range orig.DielIdx {
			diel[i] = true
		}
		moved := 0
		for j := 0; j < sh.N; j++ {
			i, ok := row[[3]float64(sh.Coords[3*j:3*j+3])]
			if !ok {
				t.Fatalf("%v: shuffled row %d is not an original point", c, j)
			}
			if i != j {
				moved++
			}
			if !sameBits(sh.MirrorX[3*j:3*j+3], orig.MirrorX[3*i:3*i+3]) ||
				!sameBits(sh.MirrorY[3*j:3*j+3], orig.MirrorY[3*i:3*i+3]) {
				t.Fatalf("%v: row %d lost its mirror partners", c, j)
			}
			if !sameBits(sh.Eps[j:j+1], orig.Eps[i:i+1]) || sh.BinOf[j] != orig.BinOf[i] {
				t.Fatalf("%v: row %d lost its permittivity or time bin", c, j)
			}
		}
		if moved == 0 {
			t.Fatalf("%v: shuffle left every row in place", c)
		}
		if len(sh.VacIdx) != len(orig.VacIdx) || len(sh.DielIdx) != len(orig.DielIdx) {
			t.Fatalf("%v: region sizes changed", c)
		}
		for _, j := range sh.DielIdx {
			if !diel[row[[3]float64(sh.Coords[3*j:3*j+3])]] {
				t.Fatalf("%v: row %d moved into the dielectric region", c, j)
			}
		}
		for b, idx := range sh.BinIdx {
			if len(idx) != len(orig.BinIdx[b]) {
				t.Fatalf("%v: bin %d has %d points, want %d", c, b, len(idx), len(orig.BinIdx[b]))
			}
			for _, j := range idx {
				if sh.BinOf[j] != b {
					t.Fatalf("%v: bin %d lists row %d of bin %d", c, b, j, sh.BinOf[j])
				}
			}
		}
		ic := map[[4]float64]int{}
		for i := 0; i < orig.ICN; i++ {
			ic[[4]float64{orig.ICCoords[3*i], orig.ICCoords[3*i+1], orig.ICCoords[3*i+2], orig.ICEz0[i]}]++
		}
		for j := 0; j < sh.ICN; j++ {
			k := [4]float64{sh.ICCoords[3*j], sh.ICCoords[3*j+1], sh.ICCoords[3*j+2], sh.ICEz0[j]}
			if ic[k] == 0 {
				t.Fatalf("%v: initial-condition row %d is not an original point", c, j)
			}
			ic[k]--
		}

		mcfg := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
		tcfg := core.SmokeTrain(1, maxwell.PaperConfig(true, true))
		ref := core.NewReference(p, 4, []float64{0, p.TMax}, 16)
		a, _ := newTrainer(core.NewModel(mcfg), p, orig, tcfg, ref).step(nil)
		b, _ := newTrainer(core.NewModel(mcfg), p, sh, tcfg, ref).step(nil)
		if math.Abs(a.Total-b.Total) > 1e-12*math.Abs(a.Total) {
			t.Fatalf("%v: first-epoch loss %v on the original order, %v shuffled", c, a.Total, b.Total)
		}
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
