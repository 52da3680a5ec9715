// Package dist_test exercises the multi-process executor end to end with
// real subprocess workers: the coordinator self-execs this test binary
// (package dist's init intercepts TORQ_DIST_WORKER=stdio), so every parity
// run below ships shards over actual pipes to actual worker processes.
//
// It lives outside package dist so it can pull in core/nn for the training
// recovery test — those packages link dist themselves, which would be an
// import cycle for an internal test package.
package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/qsim"
)

// passResult bundles everything one engine produces for a forward+backward
// pass.
type passResult struct {
	z, dAngles, dTheta []float64
	ztans, dTans       [][]float64
}

func randRows(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// runPass executes one forward+backward pass of circ on the given engine.
func runPass(kind qsim.EngineKind, circ *qsim.Circuit, n int, angles []float64, tans [][]float64,
	theta, gz []float64, gztans [][]float64) passResult {
	return runSplitPass(kind, circ, n, angles, tans, theta, gz, gztans, nil)
}

// runSplitPass is runPass with between (when non-nil) run after the forward
// and before the backward.
func runSplitPass(kind qsim.EngineKind, circ *qsim.Circuit, n int, angles []float64, tans [][]float64,
	theta, gz []float64, gztans [][]float64, between func()) passResult {
	nq := circ.NumQubits
	pqc := &qsim.PQC{Circ: circ, Eng: kind}
	ws := qsim.NewWorkspace(n, nq)
	z, ztans := pqc.Forward(ws, angles, tans, theta)
	if between != nil {
		between()
	}
	res := passResult{
		z:       z,
		ztans:   ztans,
		dAngles: make([]float64, n*nq),
		dTheta:  make([]float64, circ.NumParams),
		dTans:   make([][]float64, qsim.MaxTangents),
	}
	for k := range tans {
		if tans[k] != nil {
			res.dTans[k] = make([]float64, n*nq)
		}
	}
	pqc.Backward(ws, gz, gztans, res.dAngles, res.dTans, res.dTheta)
	return res
}

// requireBitIdentical fails unless a and b are bitwise equal floats.
func requireBitIdentical(t *testing.T, ctx, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %s length %d vs %d", ctx, name, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: %s[%d] differs: %v vs %v (bit patterns %016x vs %016x)",
				ctx, name, i, want[i], got[i], math.Float64bits(want[i]), math.Float64bits(got[i]))
		}
	}
}

func comparePass(t *testing.T, ctx string, want, got passResult) {
	t.Helper()
	requireBitIdentical(t, ctx, "z", want.z, got.z)
	requireBitIdentical(t, ctx, "dAngles", want.dAngles, got.dAngles)
	requireBitIdentical(t, ctx, "dTheta", want.dTheta, got.dTheta)
	for k := 0; k < qsim.MaxTangents; k++ {
		if want.ztans[k] != nil {
			requireBitIdentical(t, ctx, "ztans", want.ztans[k], got.ztans[k])
			requireBitIdentical(t, ctx, "dTans", want.dTans[k], got.dTans[k])
		} else if got.ztans[k] != nil {
			t.Fatalf("%s: tangent channel %d unexpectedly present", ctx, k)
		}
	}
}

// affinityShards reads the coordinator's affinity accounting: how many
// backward shards it routed to, or away from, their forward's owner. Only
// a backward paired with its forward counts here.
func affinityShards() int64 {
	var sum int64
	dist.Collect(func(name string, v int64) {
		if name == "dist.aff_routed" || name == "dist.aff_missed" {
			sum += v
		}
	})
	return sum
}

// TestDistBitIdenticalToSharded is the acceptance check: EngineDist with 1,
// 2, and 4 subprocess workers must produce bit-identical z rows and
// gradients to the in-process EngineSharded on every ansatz, with and
// without data re-uploading. The batch is sized to split into several
// shards so multi-worker runs genuinely interleave and re-order shard
// completion — bit-identity then proves the shard-order merge.
//
// Each workload runs twice: once with the backward paired to its forward,
// so workers run it on the states their forward kept, and once unpaired.
// In the unpaired run a forward of a different batch size lands between the
// forward and the backward; its pass frame supersedes the kept states, so
// every worker recomputes the forward.
func TestDistBitIdenticalToSharded(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(4242))
	const n, nq = 48, 4

	type workload struct {
		circ *qsim.Circuit
		ctx  string
		in   []([]float64) // angles, theta, gz
		tans [][]float64
		gzt  [][]float64
		want passResult
	}
	var loads []workload
	for _, a := range qsim.AllAnsatze {
		for _, reup := range []bool{false, true} {
			circ := a.Build(nq, 2)
			if reup {
				circ = circ.WithReupload()
			}
			angles := randRows(rng, n*nq)
			theta := randRows(rng, circ.NumParams)
			tans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			gz := randRows(rng, n*nq)
			gztans := [][]float64{randRows(rng, n*nq), nil, randRows(rng, n*nq)}
			loads = append(loads, workload{
				circ: circ,
				ctx:  circ.Name,
				in:   [][]float64{angles, theta, gz},
				tans: tans, gzt: gztans,
				want: runPass(qsim.EngineSharded, circ, n, angles, tans, theta, gz, gztans),
			})
		}
	}

	for _, workers := range []int{1, 2, 4} {
		dist.Configure(dist.Options{Workers: workers})
		for _, w := range loads {
			ctx := fmt.Sprintf("%s/workers=%d", w.ctx, workers)
			checkPairedAndUnpaired(t, ctx, w.circ, n, w.in[0], w.tans, w.in[1], w.in[2], w.gzt, w.want)
		}
	}
}

// checkPairedAndUnpaired runs one pass on EngineDist twice and compares
// both with want. The first backward pairs with its forward, so it must
// move the affinity accounting. Before the second backward, a forward of
// half the batch runs, so every worker recomputes and the accounting must
// not move.
func checkPairedAndUnpaired(t *testing.T, ctx string, circ *qsim.Circuit, n int, angles []float64, tans [][]float64,
	theta, gz []float64, gztans [][]float64, want passResult) {
	t.Helper()
	aff := affinityShards()
	comparePass(t, ctx+"/paired", want, runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans))
	if affinityShards() == aff {
		t.Fatalf("%s/paired: backward did not pair with its forward", ctx)
	}
	m, nq := n/2, circ.NumQubits
	other := func() {
		pqc := &qsim.PQC{Circ: circ, Eng: qsim.EngineDist}
		pqc.Forward(qsim.NewWorkspace(m, nq), angles[:m*nq], nil, theta)
	}
	aff = affinityShards()
	comparePass(t, ctx+"/unpaired", want, runSplitPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans, other))
	if affinityShards() != aff {
		t.Fatalf("%s/unpaired: backward paired across a forward of another batch size", ctx)
	}
}

// TestDistBitIdenticalLargeBatch covers the 7-qubit shape the benchmarks
// use, where a pass splits into dozens of shards and the fused-diagonal
// accumulators (Cross-Mesh's opDiagN) must merge in shard order across
// worker processes.
func TestDistBitIdenticalLargeBatch(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(99))
	const n, nq = 96, 7
	circ := qsim.CrossMesh.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	tans := [][]float64{randRows(rng, n*nq), randRows(rng, n*nq), randRows(rng, n*nq)}
	gz := randRows(rng, n*nq)
	gztans := [][]float64{randRows(rng, n*nq), randRows(rng, n*nq), randRows(rng, n*nq)}
	want := runPass(qsim.EngineSharded, circ, n, angles, tans, theta, gz, gztans)

	dist.Configure(dist.Options{Workers: 2})
	got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
	comparePass(t, "crossmesh-7q", want, got)
}

// TestDistNoTangentsNilGrad covers the pure value path (no tangent channels,
// nil angle-gradient buffers) the barren-plateau probe drives the layer
// with.
func TestDistNoTangentsNilGrad(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(7))
	const n, nq = 33, 4
	circ := qsim.StronglyEntangling.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	gz := randRows(rng, n*nq)

	run := func(kind qsim.EngineKind) ([]float64, []float64, []float64) {
		pqc := &qsim.PQC{Circ: circ, Eng: kind}
		ws := qsim.NewWorkspace(n, nq)
		z, _ := pqc.Forward(ws, angles, nil, theta)
		dA := make([]float64, n*nq)
		dTheta := make([]float64, circ.NumParams)
		pqc.Backward(ws, gz, nil, dA, nil, dTheta)
		return z, dA, dTheta
	}
	zS, daS, dtS := run(qsim.EngineSharded)
	dist.Configure(dist.Options{Workers: 2})
	zD, daD, dtD := run(qsim.EngineDist)
	requireBitIdentical(t, "no-tangents", "z", zS, zD)
	requireBitIdentical(t, "no-tangents", "dAngles", daS, daD)
	requireBitIdentical(t, "no-tangents", "dTheta", dtS, dtD)
}

// TestDistNilValueGradient covers a nil gz with live tangent upstream
// gradients (only the tangent outputs feed the loss), so the optional-array
// wire encoding of an absent gz is exercised against the in-process result.
func TestDistNilValueGradient(t *testing.T) {
	defer dist.Shutdown()
	rng := rand.New(rand.NewSource(13))
	const n, nq = 29, 4
	circ := qsim.CrossMesh2Rot.Build(nq, 2)
	angles := randRows(rng, n*nq)
	theta := randRows(rng, circ.NumParams)
	tans := [][]float64{randRows(rng, n*nq), nil, nil}
	gztans := [][]float64{randRows(rng, n*nq), nil, nil}

	want := runPass(qsim.EngineSharded, circ, n, angles, tans, theta, nil, gztans)
	dist.Configure(dist.Options{Workers: 2})
	got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, nil, gztans)
	comparePass(t, "nil-gz", want, got)
}
