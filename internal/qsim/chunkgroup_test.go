package qsim

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/par"
)

// TestShardedBitIdenticalAcrossChunkGroups pins that how par groups shards
// onto workers never reaches the sharded engine's results, even when the
// grouping changes inside one pass. par.RunChunk seeds each worker with a
// contiguous group of chunks whose size follows the worker bound, and
// stealing moves group tails between workers; the shards and the order
// their partials merge in are fixed by the batch shape alone. A forward
// under one worker bound followed by its backward under another must
// therefore match the serial run bit for bit.
// TestShardedDeterministicAcrossWorkerCounts covers whole passes under a
// single bound.
func TestShardedBitIdenticalAcrossChunkGroups(t *testing.T) {
	onBothPaths(t, testShardedBitIdenticalAcrossChunkGroups)
}

func testShardedBitIdenticalAcrossChunkGroups(t *testing.T) {
	defer par.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(777))
	circ := CrossMesh.Build(5, 3)
	n, nq := 41, 5 // odd batch: a partial tail shard
	angles := randAngles(rng, n, nq)
	theta := randTheta(rng, circ.NumParams)
	tans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}
	gz := randAngles(rng, n, nq)
	gztans := [][]float64{randAngles(rng, n, nq), nil, randAngles(rng, n, nq)}

	par.SetMaxWorkers(1)
	ref := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)

	for _, flip := range [][2]int{{1, 8}, {8, 1}, {2, 16}, {16, 2}} {
		ctx := "forward workers=" + strconv.Itoa(flip[0]) + " backward workers=" + strconv.Itoa(flip[1])
		pqc := &PQC{Circ: circ, Eng: EngineSharded}
		ws := NewWorkspace(n, nq)
		par.SetMaxWorkers(flip[0])
		z, ztans := pqc.Forward(ws, angles, tans, theta)
		par.SetMaxWorkers(flip[1])
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

		//torq:allow maprange -- independent per-series assertions
		for name, pair := range map[string][2][]float64{
			"z": {ref.z, got.z}, "dAngles": {ref.dAngles, got.dAngles},
			"dTheta": {ref.dTheta, got.dTheta},
		} {
			if d := maxAbsDiff(pair[0], pair[1]); d != 0 {
				t.Errorf("%s: %s not bit-identical to the serial run (diff %v)", ctx, name, d)
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
}
