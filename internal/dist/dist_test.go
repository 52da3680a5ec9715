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
	nq := circ.NumQubits
	pqc := &qsim.PQC{Circ: circ, Eng: kind}
	ws := qsim.NewWorkspace(n, nq)
	z, ztans := pqc.Forward(ws, angles, tans, theta)
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

// distTransportConfigs are the transport variants every parity matrix runs
// under: the default pipelined/batched/affinity transport, and the knobs
// forced to one shard per batch frame, one batch in flight and no
// affinity — bit-identity must hold for both, which proves batching, pipelining, and forward-state
// affinity are pure transport concerns that never touch the numerics.
var distTransportConfigs = []struct {
	name string
	opts dist.Options
}{
	{"batched", dist.Options{}},
	{"unbatched", dist.Options{BatchShards: 1, Pipeline: 1, Affinity: -1}},
}

// TestDistBitIdenticalToSharded is the acceptance check: EngineDist with 1,
// 2, and 4 subprocess workers must produce bit-identical z rows and
// gradients to the in-process EngineSharded on every ansatz, with and
// without data re-uploading, with shard batching and forward-state affinity
// both enabled and disabled. The batch is sized to split into several
// shards so multi-worker runs genuinely interleave and re-order shard
// completion — bit-identity then proves the shard-order merge.
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

	for _, cfg := range distTransportConfigs {
		for _, workers := range []int{1, 2, 4} {
			opts := cfg.opts
			opts.Workers = workers
			dist.Configure(opts)
			for _, w := range loads {
				got := runPass(qsim.EngineDist, w.circ, n, w.in[0], w.tans, w.in[1], w.in[2], w.gzt)
				comparePass(t, fmt.Sprintf("%s/%s/workers=%d", w.ctx, cfg.name, workers), w.want, got)
			}
		}
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

	for _, cfg := range distTransportConfigs {
		opts := cfg.opts
		opts.Workers = 2
		dist.Configure(opts)
		got := runPass(qsim.EngineDist, circ, n, angles, tans, theta, gz, gztans)
		comparePass(t, "crossmesh-7q/"+cfg.name, want, got)
	}
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
