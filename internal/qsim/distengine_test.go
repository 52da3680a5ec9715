package qsim

import (
	"math"
	"math/rand"
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

// TestShardRunnerForwardStateCache pins the affinity cache's contract: a
// cached backward replay is bit-identical to the stateless recompute, the
// cache validates the backward shard's inputs before use (any mismatch
// degrades to a recompute, never a wrong gradient), and moving the forward
// pass id drops every snapshot so stale-pass states cannot be replayed.
func TestShardRunnerForwardStateCache(t *testing.T) {
	rng := rand.New(rand.NewSource(60606))
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

	r.SetForwardPass(1)
	zRet, _ := r.ForwardShardRetain(3, n, active, angles, angleTans, theta)
	zRetCopy := append([]float64(nil), zRet...)
	if got := r.CachedForwardShards(); got != 1 {
		t.Fatalf("cache holds %d snapshots after one retained forward, want 1", got)
	}
	zPlain, _ := r.ForwardShard(n, active, angles, angleTans, theta)
	for i := range zPlain {
		if math.Float64bits(zPlain[i]) != math.Float64bits(zRetCopy[i]) {
			t.Fatalf("ForwardShardRetain z[%d] = %v differs from ForwardShard's %v", i, zRetCopy[i], zPlain[i])
		}
	}

	// Stateless reference gradients, deep-copied before the cached call
	// reuses the runner's buffers.
	da, dat, dth, diagT := r.BackwardShard(n, active, angles, angleTans, theta, gz, gztans)
	wantDA := append([]float64(nil), da...)
	wantDTh := append([]float64(nil), dth...)
	wantDiag := append([]float64(nil), diagT...)
	var wantDAT [MaxTangents][]float64
	for k := 0; k < MaxTangents; k++ {
		wantDAT[k] = append([]float64(nil), dat[k]...)
	}

	reject := func(ctx string, shard uint32, th []float64) {
		t.Helper()
		if _, _, _, _, ok := r.BackwardShardCached(shard, n, active, angles, angleTans, th, gz, gztans); ok {
			t.Fatalf("%s: cache validated a snapshot it should have rejected", ctx)
		}
	}
	reject("unknown shard index", 4, theta)
	bumped := append([]float64(nil), theta...)
	bumped[0] = math.Nextafter(bumped[0], math.Inf(1))
	reject("perturbed theta", 3, bumped)

	da2, dat2, dth2, diag2, ok := r.BackwardShardCached(3, n, active, angles, angleTans, theta, gz, gztans)
	if !ok {
		t.Fatal("valid snapshot rejected")
	}
	bitEq := func(name string, want, got []float64) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s length %d vs %d", name, len(want), len(got))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s[%d]: cached %v vs stateless %v", name, i, got[i], want[i])
			}
		}
	}
	bitEq("dAngles", wantDA, da2)
	bitEq("dTheta", wantDTh, dth2)
	bitEq("diagT", wantDiag, diag2)
	for k := 0; k < MaxTangents; k++ {
		bitEq("dAngleTans", wantDAT[k], dat2[k])
	}

	// Pass rollover invalidates everything, including replays of the exact
	// same inputs.
	r.SetForwardPass(2)
	if got := r.CachedForwardShards(); got != 0 {
		t.Fatalf("cache holds %d snapshots after pass rollover, want 0", got)
	}
	reject("stale pass", 3, theta)
}

// TestShardRunnerSteadyStateAllocs pins the shard loop's zero-alloc
// contract (the //torq:hotpath annotations on ForwardShard / BackwardShard /
// runAdjoint): once the per-size state and the coefficient cache are warm,
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

	// Warm the per-size state and both coefficient tables.
	r.ForwardShard(n, active, angles, angleTans, theta)
	r.BackwardShard(n, active, angles, angleTans, theta, gz, gztans)

	if avg := testing.AllocsPerRun(20, func() {
		r.ForwardShard(n, active, angles, angleTans, theta)
	}); avg != 0 {
		t.Errorf("warm ForwardShard allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		r.BackwardShard(n, active, angles, angleTans, theta, gz, gztans)
	}); avg != 0 {
		t.Errorf("warm BackwardShard allocates %.1f objects per call, want 0", avg)
	}
}
