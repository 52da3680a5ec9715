package qsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustShardRunner(t *testing.T, circ *Circuit) *ShardRunner {
	t.Helper()
	r, err := NewShardRunner(circ, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShardRunnerForwardStateCache pins the shard records' contract: a
// backward whose inputs match its shard's forward runs on the kept states
// (cached) and returns the bits a fresh runner's recompute returns; a
// one-ulp theta change, another active mask or the next forward pass makes
// it recompute; and the adjoint consumes the record, so a second backward
// recomputes too.
func TestShardRunnerForwardStateCache(t *testing.T) {
	rng := rand.New(rand.NewSource(60606))
	circ := StronglyEntangling.Build(4, 2)
	r := mustShardRunner(t, circ)
	const n, nq, shard = 5, 4, 3
	active := [MaxTangents]bool{true, false, true}
	rows := func() []float64 { return randAngles(rng, n, nq) }
	angles, gz := rows(), rows()
	var angleTans, gztans [MaxTangents][]float64
	for k := 0; k < MaxTangents; k++ {
		angleTans[k], gztans[k] = rows(), rows()
	}
	theta := randTheta(rng, circ.NumParams)
	bumped := append([]float64(nil), theta...)
	bumped[0] = math.Nextafter(bumped[0], math.Inf(1))

	type grads struct{ da, dth, diagT, dat0, dat2 []float64 }
	backward := func(r *ShardRunner, act [MaxTangents]bool, th []float64) (grads, bool) {
		da, dat, dth, diagT, cached := r.BackwardShard(shard, n, act, angles, angleTans, th, gz, gztans)
		return grads{slices.Clone(da), slices.Clone(dth), slices.Clone(diagT), slices.Clone(dat[0]), slices.Clone(dat[2])}, cached
	}
	// fresh is the recompute reference: a runner that never ran the
	// shard's forward recomputes it.
	fresh := func(act [MaxTangents]bool, th []float64) grads {
		g, cached := backward(mustShardRunner(t, circ), act, th)
		if cached {
			t.Fatal("a fresh runner reports a cached backward")
		}
		return g
	}
	check := func(ctx string, act [MaxTangents]bool, th []float64, wantCached bool) {
		t.Helper()
		got, cached := backward(r, act, th)
		if cached != wantCached {
			t.Fatalf("%s: cached = %v, want %v", ctx, cached, wantCached)
		}
		want := fresh(act, th)
		for i, pair := range [][2][]float64{{want.da, got.da}, {want.dth, got.dth}, {want.diagT, got.diagT}, {want.dat0, got.dat0}, {want.dat2, got.dat2}} {
			if !bitsEqualF64(pair[0], pair[1]) {
				t.Fatalf("%s: gradient %d differs from a fresh runner's", ctx, i)
			}
		}
	}
	forward := func() { r.ForwardShard(shard, n, active, angles, angleTans, theta) }

	forward()
	check("hit", active, theta, true)
	check("consumed by the adjoint", active, theta, false)
	forward()
	check("one ulp of theta", active, bumped, false)
	forward()
	check("another active mask", [MaxTangents]bool{true, false, false}, theta, false)
	forward()
	r.BeginForwardPass()
	check("next forward pass", active, theta, false)
	// Another shard's forward leaves this shard's record alone.
	forward()
	r.ForwardShard(shard+1, n, active, rows(), angleTans, theta)
	check("hit beside another shard", active, theta, true)
}

// TestShardRunnerSteadyStateAllocs pins the shard loop's zero-alloc
// contract (the //torq:hotpath annotations on ForwardShard and
// BackwardShard): once the per-size state and the coefficient cache are warm,
// repeated shard executions must not allocate — tangents travel as
// [MaxTangents][]float64 values pointing into the runner's reused output
// buffers, and a repeated theta refills no table.
func TestShardRunnerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(70707))
	circ := StronglyEntangling.Build(4, 2)
	r := mustShardRunner(t, circ)
	const n, nq = 5, 4
	active := [MaxTangents]bool{true, false, true}
	rows := func() []float64 { return randAngles(rng, n, nq) }
	angles, gz := rows(), rows()
	var angleTans, gztans [MaxTangents][]float64
	for k := 0; k < MaxTangents; k++ {
		if active[k] {
			angleTans[k], gztans[k] = rows(), rows()
		}
	}
	theta := randTheta(rng, circ.NumParams)

	// Warm the per-size state, the shard's record and both coefficient
	// tables.
	r.ForwardShard(0, n, active, angles, angleTans, theta)
	r.BackwardShard(0, n, active, angles, angleTans, theta, gz, gztans)

	if avg := testing.AllocsPerRun(20, func() {
		r.ForwardShard(0, n, active, angles, angleTans, theta)
	}); avg != 0 {
		t.Errorf("warm ForwardShard allocates %.1f objects per call, want 0", avg)
	}
	// The first of these runs on the record the forwards above kept; the
	// rest recompute. The last check pairs each backward with a forward.
	if avg := testing.AllocsPerRun(20, func() {
		r.BackwardShard(0, n, active, angles, angleTans, theta, gz, gztans)
	}); avg != 0 {
		t.Errorf("warm BackwardShard allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		r.ForwardShard(0, n, active, angles, angleTans, theta)
		r.BackwardShard(0, n, active, angles, angleTans, theta, gz, gztans)
	}); avg != 0 {
		t.Errorf("warm forward and cached backward allocate %.1f objects per call, want 0", avg)
	}
}
