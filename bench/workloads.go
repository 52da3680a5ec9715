package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// workload is one set of inputs the benchmark runs: a training
// configuration with a fixed epoch budget and an L2 target, or the
// inference sweep. The model is always built from the configuration's own
// seed (the paper's seed 1); the benchmark seed only reorders the points the
// program is fed (and, for inference, shifts the snapshot times), so every
// seed does the same work and follows the same convergence curve while the
// program still sees different inputs.
type workload struct {
	name string
	why  string

	model func() core.ModelConfig
	// distWorkers > 0 runs the model on EngineDist with that many
	// subprocess workers, fixed rather than derived from the host. One
	// worker computes what the single-threaded in-process engine computes,
	// so the difference between the two workloads is the transport alone;
	// two workers also measured the host's second vCPU, whose contention
	// spread the runs by 15%.
	distWorkers int

	// Training workloads: problem case, collocation grid, epoch budget,
	// and the L2 that time_to_l2_ys waits for.
	problem maxwell.Case
	grid    int
	epochs  int
	target  float64

	// Inference workloads: EvalFields calls per sweep, one snapshot of
	// inferGrid² points each.
	calls int

	// oracle, when set, checks the trained or evaluated model after the
	// measured steps.
	oracle func(*instance) error
}

// workloads is the benchmark's registry, in report order.
var workloads = []*workload{
	{
		name:    "vacuum-qpinn",
		why:     "paper headline QPINN, vacuum, 150 epochs, L2 target 0.85: the ad tape is ~78% of a step and qsim ~22%, so tape and GEMM changes show here",
		model:   func() core.ModelConfig { return core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos) },
		problem: maxwell.VacuumCase, grid: 10, epochs: 150, target: 0.85,
	},
	{
		name: "vacuum-classical",
		why:  "paper classical PINN on the same problem, 150 epochs, L2 target 0.893: qsim and dist do no work, so their changes must leave it unchanged",
		model: func() core.ModelConfig {
			return core.SmokeModel(core.ClassicalRegular, qsim.StronglyEntangling, qsim.ScaleAcos)
		},
		problem: maxwell.VacuumCase, grid: 10, epochs: 150, target: 0.893,
	},
	{
		name:    "dielectric-qpinn7",
		why:     "dielectric eq. 14 loss with the paper's 7-qubit 4-layer circuit, 100 epochs, L2 target 0.753: qsim forward+adjoint is ~85% of a step",
		model:   qpinn7,
		problem: maxwell.DielectricCase, grid: 7, epochs: 100, target: 0.753,
	},
	{
		name: "dielectric-qpinn7-dist",
		why:  "same inputs on EngineDist with 1 subprocess worker, L2 target 0.753: its gap to dielectric-qpinn7 is the dist transport's cost",
		model: func() core.ModelConfig {
			m := qpinn7()
			m.Engine = qsim.EngineDist
			return m
		},
		distWorkers: 1,
		oracle:      distMatchesSharded,
		problem:     maxwell.DielectricCase, grid: 7, epochs: 100, target: 0.753,
	},
	{
		name:   "paper-infer",
		why:    "paper-scale QPINN (66,932 params), 100 EvalFields calls on 48x48 snapshots: forward only, so a backward win paid for in forward or allocation shows",
		model:  func() core.ModelConfig { return core.PaperModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos) },
		calls:  100,
		oracle: inferMatchesNaive,
	},
}

// qpinn7 is the dielectric model: smoke classical widths in front of the
// paper's 7-qubit, 4-layer Strongly-Entangling circuit with scale_asin. Like
// every in-process model here it leaves ModelConfig.Engine at its zero
// value, so the benchmark follows the production default engine.
func qpinn7() core.ModelConfig {
	m := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAsin)
	m.NumQubits, m.QLayers = 7, 4
	return m
}

// inferGrid is the inference snapshot resolution (points per side): 2304
// points a call, 2.3× the training batch. 64×64 would take 25–40 s a run
// with one thread, more than the run budget allows.
const inferGrid = 48

func (w *workload) training() bool { return w.epochs > 0 }

// budget is the number of steps whose results the workload defines: the
// epoch budget, or one inference sweep.
func (w *workload) budget() int {
	if w.training() {
		return w.epochs
	}
	return w.calls
}

// trainConfig is the smoke training configuration with the energy and
// symmetry losses, evaluating L2 every 5 epochs.
func (w *workload) trainConfig() core.TrainConfig {
	tc := core.SmokeTrain(w.epochs, maxwell.PaperConfig(true, true))
	tc.Grid = w.grid
	tc.EvalEvery = 5
	return tc
}

// lookupWorkloads resolves a comma-separated list ("" means all).
func lookupWorkloads(list string) ([]*workload, error) {
	if strings.TrimSpace(list) == "" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
				break
			}
		}
		if !found {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
	}
	return out, nil
}

// instance is one set-up workload, ready to step.
type instance struct {
	w     *workload
	model *core.Model
	ref   *core.Reference

	tr *trainer // training

	order []int     // inference: snapshot visiting order
	pred  []float64 // inference: Ez per reference point, filled by the sweep
	next  int       // inference: calls made
}

// stepOut is what one step reports back to the measuring loop.
type stepOut struct {
	ok        bool // loss, gradient norm and outputs all finite
	evaluated bool // an L2 against the reference was computed, taking evalTime
	evalTime  time.Duration
	l2        float64
}

// setup builds the workload's inputs from seed: the reference solution,
// the model, the (reordered) collocation set, and a warm-up inference pass
// that compiles the circuit and, on EngineDist, spawns and handshakes the
// workers. ls, when non-nil, records the phases as spans.
func (w *workload) setup(seed int64, ls *layerStats) *instance {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{w: w}

	var p maxwell.Problem
	var times []float64
	g := 12
	if w.training() {
		p = maxwell.NewSmokeProblem(w.problem)
		times = linspace(0, p.TMax, 5)
	} else {
		p = maxwell.NewProblem(maxwell.VacuumCase)
		g = inferGrid
		phase := rng.Float64()
		for k := 0; k < w.calls; k++ {
			times = append(times, p.TMax*(float64(k)+phase)/float64(w.calls))
		}
	}
	t := time.Now()
	in.ref = core.NewReference(p, g, times, 64)
	ls.setupPhase("reference", t)

	t = time.Now()
	if w.distWorkers > 0 {
		dist.Configure(dist.Options{Workers: w.distWorkers})
	}
	in.model = core.NewModel(w.model())
	var coll *maxwell.Collocation
	if w.training() {
		tcfg := w.trainConfig()
		coll = shuffleCollocation(maxwell.NewCollocation(p, tcfg.Grid, tcfg.TimeBins), rng)
		in.tr = newTrainer(in.model, p, coll, tcfg, in.ref)
	} else {
		in.order = rng.Perm(w.calls)
		in.pred = make([]float64, len(in.ref.Ez))
	}
	ls.setupPhase("model", t)

	t = time.Now()
	n := len(in.ref.Ez)
	if !w.training() {
		n = in.ref.PerSlice
	}
	in.model.EvalFields(in.ref.Coords[:3*n], n)
	ls.setupPhase("warm-up", t)
	return in
}

// pointsPerStep is the number of points one step processes: collocation
// points per epoch, or snapshot points per inference call.
func (in *instance) pointsPerStep() int {
	if in.tr != nil {
		return in.tr.coll.N
	}
	return in.ref.PerSlice
}

// step runs one timed step: an epoch, or one snapshot's EvalFields call.
// An inference step that completes a sweep also computes the sweep's L2.
func (in *instance) step(pr *probe) stepOut {
	if in.tr != nil {
		st, evalTime := in.tr.step(pr)
		ev := evalTime > 0
		ok := finite(st.Total) && finite(st.GradNorm) && (!ev || finite(st.L2))
		return stepOut{ok: ok, evaluated: ev, evalTime: evalTime, l2: st.L2}
	}
	ps := in.ref.PerSlice
	k := in.order[in.next%len(in.order)]
	in.next++
	pr.begin(phaseEval)
	ez, hx, hy := in.model.EvalFields(in.ref.Coords[3*k*ps:3*(k+1)*ps], ps)
	pr.end(phaseEval)
	copy(in.pred[k*ps:], ez)
	out := stepOut{ok: allFinite(ez) && allFinite(hx) && allFinite(hy), l2: math.NaN()}
	if in.next%len(in.order) == 0 {
		e0 := time.Now()
		out.l2 = in.ref.L2Of(in.pred)
		out.evaluated, out.evalTime = true, time.Since(e0)
	}
	return out
}

// closeAndWait stops what setup started — the dist worker pool — and waits
// until the worker processes have exited. It returns the largest worker
// peak RSS (MiB), read just before shutdown.
func (in *instance) closeAndWait() (workerRSS float64, err error) {
	if in.w.distWorkers == 0 {
		return 0, nil
	}
	workers := childPIDs()
	for _, pid := range workers {
		if v, err := peakRSS(strconv.Itoa(pid)); err == nil {
			workerRSS = max(workerRSS, v)
		}
	}
	dist.Shutdown()
	return workerRSS, waitExited(workers, 10*time.Second)
}

// shuffleCollocation returns c with its collocation rows and its
// initial-condition rows in a seed-drawn order. The point set, regions,
// time bins and mirror pairs are unchanged, so the loss describes the same
// problem and costs the same; only the order the program sees differs.
func shuffleCollocation(c *maxwell.Collocation, rng *rand.Rand) *maxwell.Collocation {
	out := *c
	perm := rng.Perm(c.N) // new row j holds old row perm[j]
	newRow := make([]int, c.N)
	out.Coords = make([]float64, len(c.Coords))
	out.MirrorX = make([]float64, len(c.MirrorX))
	out.MirrorY = make([]float64, len(c.MirrorY))
	out.Eps = make([]float64, c.N)
	out.BinOf = make([]int, c.N)
	for j, i := range perm {
		newRow[i] = j
		copy(out.Coords[3*j:3*j+3], c.Coords[3*i:3*i+3])
		copy(out.MirrorX[3*j:3*j+3], c.MirrorX[3*i:3*i+3])
		copy(out.MirrorY[3*j:3*j+3], c.MirrorY[3*i:3*i+3])
		out.Eps[j] = c.Eps[i]
		out.BinOf[j] = c.BinOf[i]
	}
	remap := func(idx []int) []int {
		r := make([]int, len(idx))
		for k, i := range idx {
			r[k] = newRow[i]
		}
		sort.Ints(r)
		return r
	}
	out.VacIdx = remap(c.VacIdx)
	out.DielIdx = remap(c.DielIdx)
	out.BinIdx = make([][]int, len(c.BinIdx))
	for b, idx := range c.BinIdx {
		out.BinIdx[b] = remap(idx)
	}

	icPerm := rng.Perm(c.ICN)
	out.ICCoords = make([]float64, len(c.ICCoords))
	out.ICEz0 = make([]float64, c.ICN)
	for j, i := range icPerm {
		copy(out.ICCoords[3*j:3*j+3], c.ICCoords[3*i:3*i+3])
		out.ICEz0[j] = c.ICEz0[i]
	}
	return &out
}

// distMatchesSharded checks the dist model's circuit outputs z on the
// reference probe set against an EngineSharded twin holding the same
// trained parameters: the dist engine promises bit-identity.
func distMatchesSharded(in *instance) error {
	cfg := in.model.Cfg
	cfg.Engine = qsim.EngineSharded
	twin := core.NewModel(cfg)
	for i, p := range in.model.Reg.Params {
		copy(twin.Reg.Params[i].W, p.W)
	}
	n := len(in.ref.Ez)
	got := in.model.PenultimateActivations(in.ref.Coords, n)
	want := twin.PenultimateActivations(in.ref.Coords, n)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("dist z[%d] = %v, sharded z = %v: not bit-identical", i, got[i], want[i])
		}
	}
	return nil
}

// inferMatchesNaive checks the first 16 points of the first snapshot against
// the same-seed model on the naive dense engine, to 1e-10 relative.
func inferMatchesNaive(in *instance) error {
	const n, tol = 16, 1e-10
	cfg := in.model.Cfg
	cfg.Engine = qsim.EngineNaive
	twin := core.NewModel(cfg)
	coords := in.ref.Coords[:3*n]
	ez, hx, hy := in.model.EvalFields(coords, n)
	wz, wx, wy := twin.EvalFields(coords, n)
	for f, pair := range [][2][]float64{{ez, wz}, {hx, wx}, {hy, wy}} {
		for i := range pair[1] {
			got, want := pair[0][i], pair[1][i]
			if !(math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))) {
				return fmt.Errorf("field %d point %d: %v vs naive engine %v (tolerance %g)", f, i, got, want, tol)
			}
		}
	}
	return nil
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if !finite(x) {
			return false
		}
	}
	return true
}
