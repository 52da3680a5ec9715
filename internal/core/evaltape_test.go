package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// TestEvalFieldsReusesTape checks that EvalFields' reused tape leaves no
// trace of an earlier call: on one paper-scale Model, a 2304-point call, a
// smaller one, and a call after a training step each return the fields a
// fresh Model with the same parameters returns, bit for bit. A steady-state
// call then stays within a fixed allocation count, which the per-call tape
// it replaced exceeded (75 allocations, 27 MB, at this size).
func TestEvalFieldsReusesTape(t *testing.T) {
	cfg := PaperModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	rng := rand.New(rand.NewSource(517))
	const n = 2304
	coords := make([]float64, 3*n)
	for i := range coords {
		coords[i] = 2*rng.Float64() - 1
	}
	m := NewModel(cfg)
	same := func(what string, k int) {
		t.Helper()
		fresh := NewModel(cfg)
		for i, p := range m.Reg.Params {
			copy(fresh.Reg.Params[i].W, p.W)
		}
		ez, hx, hy := m.EvalFields(coords[:3*k], k)
		wz, wx, wy := fresh.EvalFields(coords[:3*k], k)
		for c, pair := range [][2][]float64{{ez, wz}, {hx, wx}, {hy, wy}} {
			if len(pair[0]) != k {
				t.Fatalf("%s: field %d has %d values, want %d", what, c, len(pair[0]), k)
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("%s: field %d point %d = %v, a fresh model gives %v", what, c, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	same("first call", n)
	same("smaller batch", 500)
	tcfg := SmokeTrain(1, maxwell.PaperConfig(true, true))
	tcfg.Grid = 4
	TrainModel(m, maxwell.NewSmokeProblem(maxwell.VacuumCase), tcfg, nil)
	same("after a training step", n)

	const maxAllocs = 40
	if a := testing.AllocsPerRun(2, func() { m.EvalFields(coords, n) }); a > maxAllocs {
		t.Errorf("steady-state EvalFields: %v allocations per call, want at most %d", a, maxAllocs)
	}
}
