package qsim

import "repro/internal/par"

// shardedEngine executes the level-3 compiled program as independent sample
// shards. The batch is partitioned into fixed cache-resident shards — the
// partition depends only on the batch size and channel count, never on the
// worker bound — and each shard streams the whole instruction stream on the
// work-stealing scheduler (par.RunChunk), so shards with uneven cost
// rebalance across the pool instead of idling it, and a forward+backward
// pass costs two fork/joins total. Every shard owns a private gradient
// accumulator; after the adjoint pass the shard partials merge in
// shard-index order, so dTheta is bit-identical for 1 and N workers.
//
// The shard is also the distribution unit the multi-process executor
// (EngineDist) ships: its inputs are (coefficients, sample range) and its
// outputs are (z rows, per-shard gradient partials), with the same
// deterministic shard-order merge on the coordinator.
type shardedEngine struct{}

func (shardedEngine) Kind() EngineKind { return EngineSharded }

// shardCount reports how many shards a batch of n samples splits into at
// shard size blk.
func shardCount(n, blk int) int { return (n + blk - 1) / blk }

func (shardedEngine) Forward(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (z []float64, ztans [][]float64) {
	prog, coeff, z, ztans, blk := prepForward(p, ws, angles, angleTans, theta)
	// Chunk on the cache-block size so scheduler ranges never split a block:
	// an arbitrary chunk would re-walk the instruction stream over partial
	// blocks at every chunk tail.
	par.RunChunk(ws.n, blk, func(_, lo, hi int) {
		fwdBlock(ws, prog, coeff, lo, hi, z, ztans)
	})
	return z, ztans
}

//torq:ordered-merge
func (shardedEngine) Backward(p *PQC, ws *Workspace, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, dTheta []float64) {
	prog := p.Program()
	n := ws.n
	np := p.Circ.NumParams
	refreshCoeffs(ws, prog, ws.theta)

	blk := backwardBlock(ws.val.Dim, ws.active)
	ns := shardCount(n, blk)

	// Per-shard accumulators, flat with fixed strides. They are indexed by
	// shard, not by worker, so the accumulation sites — and therefore the
	// floating-point reduction order — are pinned by the shard partition
	// alone.
	if cap(ws.dthS) < ns*np {
		ws.dthS = make([]float64, ns*np)
	}
	ws.dthS = ws.dthS[:ns*np]
	clear(ws.dthS)
	nt := prog.ndiag * ws.val.Dim
	if cap(ws.diagS) < ns*nt {
		ws.diagS = make([]float64, ns*nt)
	}
	ws.diagS = ws.diagS[:ns*nt]
	clear(ws.diagS)

	par.RunChunk(n, blk, func(_, lo, hi int) {
		s := lo / blk
		sc := bwdScratch{dth: ws.dthS[s*np : (s+1)*np]}
		if nt > 0 {
			sc.diagT = ws.diagS[s*nt : (s+1)*nt]
		}
		bwdBlock(ws, prog, lo, hi, gz, gztans, dAngles, dAngleTans, sc)
	})

	// Deterministic merge: shard order, independent of worker count.
	// Fused-diagonal accumulators merge the same way and contract
	// against the sign tables once per pass.
	for s := 0; s < ns; s++ {
		part := ws.dthS[s*np : (s+1)*np]
		for i, v := range part {
			dTheta[i] += v
		}
	}
	if nt > 0 {
		acc := ws.diagS[:nt]
		for s := 1; s < ns; s++ {
			part := ws.diagS[s*nt : (s+1)*nt]
			for i, v := range part {
				acc[i] += v
			}
		}
		reduceDiagNGrads(prog, acc, dTheta, ws.val.Dim)
	}
}
