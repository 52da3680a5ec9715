package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/qsim"
)

// TestDistRedispatchOnWorkerDeath arms one of two workers to die
// deterministically mid-pass (after serving its first shard) and checks the
// coordinator finishes the pass on the survivor with results bit-identical
// to an undisturbed run — re-dispatch must be invisible because shard
// results do not depend on which worker computed them.
func TestDistRedispatchOnWorkerDeath(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(555))
	const n, nq = 96, 7
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
	gz := randRows(rng, n*nq)
	gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}

	dist.Configure(dist.Options{Workers: 2})
	want := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	if live := dist.LiveWorkersForTest(); live != 2 {
		t.Fatalf("expected 2 live workers after the clean pass, have %d", live)
	}

	// Fresh pool with one sabotaged worker: it exits upon receiving its
	// second shard assignment, mid-pass and before replying. The forward
	// pass finishes on the survivor; the subsequent backward pass then
	// respawns the replacement (with a clean environment), so the pool is
	// whole again by the time runPass returns.
	dist.Configure(dist.Options{Workers: 2})
	dist.SetTestSpawnEnv(dist.FailAfterEnv + "=1")
	got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	comparePass(t, "after worker death", want, got)
	if live := dist.LiveWorkersForTest(); live != 2 {
		t.Fatalf("expected the pool healed to 2 live workers after the sabotaged pass, have %d", live)
	}

	// And the healed pool keeps producing identical results.
	got = runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	comparePass(t, "after respawn", want, got)
}

// TestDistSurvivesExternalKill kills a live worker's process outright (as a
// crash or OOM kill would) and checks the next pass still completes and the
// pool heals.
func TestDistSurvivesExternalKill(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(77))
	const n, nq = 40, 4
	circ := qsim.BasicEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	gz := randRows(rng, n*nq)

	dist.Configure(dist.Options{Workers: 2})
	want := runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)
	if !dist.KillOneWorkerForTest() {
		t.Fatal("no live worker to kill")
	}
	got := runPass(qsim.EngineDist, circ, n, angles, nil, theta, gz, nil)
	comparePass(t, "after external kill", want, got)
	if live := dist.LiveWorkersForTest(); live != 2 {
		t.Fatalf("expected the pool respawned to 2 live workers, have %d", live)
	}
}

// TestDistAffinityCacheServesBackward proves the shard records engage end
// to end: with the worker-side require-cached hook armed, every backward
// shard must be answered from the states its forward kept — a recompute
// (a shard sent to another worker than its owner, or a record failing
// validation) kills the worker and fails the pass. Each shard has one
// owner worker for the whole step, so this holds at 1, 2 and 4 workers.
// Two rounds with fresh inputs and theta check that each backward runs on
// its own round's forward rather than stale states (the worker validates
// the kept inputs bit for bit).
func TestDistAffinityCacheServesBackward(t *testing.T) {
	defer dist.Shutdown()
	t.Setenv(dist.RequireCachedEnv, "1")
	rng := rand.New(rand.NewSource(31337))
	const n, nq = 96, 7
	circ := qsim.CrossMesh.Build(nq, 2)

	for _, workers := range []int{1, 2, 4} {
		dist.Configure(dist.Options{Workers: workers})
		for round := 0; round < 2; round++ {
			angles := randRows(rng, n*nq)
			theta := randRows(rng, circ.NumParams)
			tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			gz := randRows(rng, n*nq)
			gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			want := runPass(qsim.EngineSharded, circ, n, angles, tans, theta, gz, gztans)
			got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
			comparePass(t, fmt.Sprintf("require-cached workers=%d round %d", workers, round), want, got)
		}
		if live := dist.LiveWorkersForTest(); live != workers {
			t.Fatalf("expected %d live workers (no cache miss ever killed one), have %d", workers, live)
		}
	}
}

// TestDistAffinityInvalidationOnWorkerDeath kills workers holding kept
// forward states between a pass's forward and backward halves. The
// backward must recompute those shards on the respawned owners and stay
// bit-identical to the in-process sharded engine — the kept states are a
// fast path, never a correctness dependency.
func TestDistAffinityInvalidationOnWorkerDeath(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(909))
	const n, nq = 96, 7
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
	gz := randRows(rng, n*nq)
	gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
	want := runPass(qsim.EngineSharded, circ, n, angles, tans, theta, gz, gztans)

	// splitPass runs forward, kills `kills` live workers while they hold
	// the forward states, then runs the paired backward.
	splitPass := func(kills int) passResult {
		return runSplitPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans, func() {
			for i := 0; i < kills; i++ {
				if !dist.KillOneWorkerForTest() {
					t.Fatal("no live worker to kill")
				}
			}
		})
	}

	dist.Configure(dist.Options{Workers: 2})
	comparePass(t, "clean affinity pass", want, splitPass(0))
	// One state-holder dies: the pool respawns its slot before the
	// backward, and the new owner recomputes that slot's shards next to the
	// survivor's cached ones.
	comparePass(t, "one state-holder killed", want, splitPass(1))
	// Every state-holder dies: the whole backward recomputes on workers
	// that never saw the forward.
	comparePass(t, "all state-holders killed", want, splitPass(2))
	if live := dist.LiveWorkersForTest(); live != 2 {
		t.Fatalf("expected the pool healed to 2 live workers, have %d", live)
	}
}

// trainEpochs runs a smoke-scale QPINN training for the given number of
// epochs on the selected engine and returns the final loss.
func trainEpochs(t *testing.T, engine qsim.EngineKind, epochs int) float64 {
	t.Helper()
	prob := maxwell.NewProblem(maxwell.VacuumCase)
	mcfg := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	mcfg.Engine = engine
	model := core.NewModel(mcfg)
	coll := maxwell.NewCollocation(prob, 6, 5)
	cfg := maxwell.PaperConfig(true, true)
	adam := opt.NewAdam(1e-3, model.Reg.Buffers(), model.Reg.Grads)
	tape := ad.NewTape()
	var loss float64
	for e := 0; e < epochs; e++ {
		tape.Reset()
		model.Reg.Bind(tape, true)
		terms := maxwell.Build(tape, model.Forward, prob, coll, cfg)
		tape.Backward(terms.Total)
		model.Reg.PullGrads()
		adam.Step()
		loss = terms.Total.Scalar()
	}
	return loss
}

// TestDistTrainingEpochSurvivesWorkerDeath is the acceptance scenario: a
// full training epoch on EngineDist with a worker dying mid-pass must
// complete and produce the bit-identical loss trajectory of an undisturbed
// dist run (worker death only re-routes shards, never changes results), and
// stay consistent with the in-process sharded engine.
func TestDistTrainingEpochSurvivesWorkerDeath(t *testing.T) {
	defer dist.Shutdown()

	shardedLoss := trainEpochs(t, qsim.EngineSharded, 2)

	dist.Configure(dist.Options{Workers: 2})
	cleanLoss := trainEpochs(t, qsim.EngineDist, 2)

	dist.Configure(dist.Options{Workers: 2})
	dist.SetTestSpawnEnv(dist.FailAfterEnv + "=3")
	killedLoss := trainEpochs(t, qsim.EngineDist, 2)

	if math.IsNaN(killedLoss) || math.IsInf(killedLoss, 0) {
		t.Fatalf("training with a killed worker produced loss %v", killedLoss)
	}
	if math.Float64bits(cleanLoss) != math.Float64bits(killedLoss) {
		t.Errorf("worker death changed the training trajectory: clean %v vs killed %v", cleanLoss, killedLoss)
	}
	// Across engines the shard partials are identical; the only difference
	// is where per-sample gradients re-enter pre-populated tape buffers, so
	// the trajectories agree to reassociation-level precision.
	if d := math.Abs(cleanLoss - shardedLoss); d > 1e-9*math.Max(1, math.Abs(shardedLoss)) {
		t.Errorf("dist training diverged from sharded: %v vs %v (|Δ|=%v)", cleanLoss, shardedLoss, d)
	}
}
