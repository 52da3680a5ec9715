package qsim

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/par"
)

// TestShardedBitIdenticalAcrossChunkGroups pins the guarantee the ftdc
// auto-tuner rests on: par's chunk-group multiplier only changes how many
// consecutive shards move per scheduling operation, never which shards
// exist or the order their partials merge in — so the sharded engine's
// outputs and gradients stay BIT-identical for every group setting, every
// worker count, and even when the setting flips between a pass's forward
// and backward halves (exactly what the runtime controller does
// mid-training).
func TestShardedBitIdenticalAcrossChunkGroups(t *testing.T) {
	onBothPaths(t, testShardedBitIdenticalAcrossChunkGroups)
}

func testShardedBitIdenticalAcrossChunkGroups(t *testing.T) {
	defer par.SetMaxWorkers(0)
	defer par.SetChunkGroup(1)
	rng := rand.New(rand.NewSource(777))
	circ := CrossMesh.Build(5, 3)
	n, nq := 41, 5 // odd batch: a partial tail shard
	angles := randAngles(rng, n, nq)
	theta := randTheta(rng, circ.NumParams)
	tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
	gz := randAngles(rng, n, nq)
	gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

	par.SetMaxWorkers(1)
	par.SetChunkGroup(1)
	ref := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)

	check := func(ctx string, got engineResult) {
		t.Helper()
		//torq:allow maprange -- independent per-series assertions
		for name, pair := range map[string][2][]float64{
			"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
			"dTheta": {ref.dTheta, got.dTheta},
		} {
			if d := maxAbsDiff(pair[0], pair[1]); d != 0 {
				t.Errorf("%s: %s not bit-identical to the fixed-chunk serial run (diff %v)", ctx, name, d)
			}
		}
		for k := 0; k < MaxTangents; k++ {
			if ref.ztans[k] == nil {
				continue
			}
			if d := maxAbsDiff(ref.ztans[k], got.ztans[k]); d != 0 {
				t.Errorf("%s: ztans[%d] not bit-identical (diff %v)", ctx, k, d)
			}
			if d := maxAbsDiff(ref.dTans[k], got.dTans[k]); d != 0 {
				t.Errorf("%s: dTans[%d] not bit-identical (diff %v)", ctx, k, d)
			}
		}
	}

	for _, workers := range []int{1, 2, 4, 16} {
		for _, group := range []int{1, 2, 3, 8, 64} {
			par.SetMaxWorkers(workers)
			par.SetChunkGroup(group)
			check(
				// Static runs of every (workers, group) cell.
				"workers="+strconv.Itoa(workers)+" group="+strconv.Itoa(group),
				runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans),
			)
		}
	}

	// Runtime flip between a pass's halves: forward at group 1, backward at
	// group 8 (and the reverse) — the controller may re-tune at any sample
	// boundary, so the halves of one pass legitimately run under different
	// settings.
	for _, flip := range [][2]int{{1, 8}, {8, 1}} {
		par.SetMaxWorkers(4)
		pqc := &PQC{Circ: circ, Eng: EngineSharded}
		ws := NewWorkspace(n, nq)
		par.SetChunkGroup(flip[0])
		z, ztans := pqc.Forward(ws, angles, tans, theta)
		par.SetChunkGroup(flip[1])
		got := engineResult{
			z: z, ztans: ztans,
			dAngles: make([]float64, n*nq),
			dTheta:  make([]float64, circ.NumParams),
			dTans:   make([][]float64, MaxTangents),
		}
		for k := range tans {
			if tans[k] != nil {
				got.dTans[k] = make([]float64, n*nq)
			}
		}
		pqc.Backward(ws, gz, gztans, got.dAngles, got.dTans, got.dTheta)
		check("mid-pass flip "+strconv.Itoa(flip[0])+"→"+strconv.Itoa(flip[1]), got)
	}
}
