package qsim

import (
	"slices"

	"repro/internal/par"
)

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
// (EngineDist) ships: its inputs are (theta, sample range) and its outputs
// are (z rows, a ShardResult of gradient partials), merged on the
// coordinator by the same mergeShards.
type shardedEngine struct{}

// shardCount reports how many shards a batch of n samples splits into at
// shard size blk.
func shardCount(n, blk int) int { return (n + blk - 1) / blk }

func (shardedEngine) Forward(p *PQC, ws *Workspace, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (z []float64, ztans [MaxTangents][]float64) {
	z, ztans = prepForward(p, ws, angles, angleTans, theta)
	prog := p.Program()
	ws.tab.fill(prog, theta, false)
	// Chunk on the cache-block size so scheduler ranges never split a block:
	// an arbitrary chunk would re-walk the instruction stream over partial
	// blocks at every chunk tail.
	par.RunChunk(ws.n, forwardBlock(ws, prog), func(_, lo, hi int) {
		fwdBlock(ws, prog, lo, hi, z, ztans)
	})
	return z, ztans
}

func (shardedEngine) Backward(p *PQC, ws *Workspace, gz []float64, gztans [MaxTangents][]float64, dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta []float64) {
	prog := p.Program()
	ws.tab.fill(prog, ws.theta, true)
	blk := backwardBlock(ws.val.Dim, ws.active)
	parts := ws.shardParts(shardCount(ws.n, blk), p.Circ.NumParams, prog.ndiag*ws.val.Dim)
	par.RunChunk(ws.n, blk, func(_, lo, hi int) {
		r := &parts[lo/blk]
		bwdBlock(ws, prog, lo, hi, gz, gztans, dAngles, dAngleTans, bwdScratch{dth: r.DTheta, diagT: r.DiagT})
	})
	mergeShards(prog, ws.val.Dim, parts, dTheta)
}

// shardParts returns ns zeroed backward-shard accumulators, each with a dθ
// partial of np floats and fused-diagonal accumulators of nt floats,
// reusing the workspace's. They are indexed by shard, not by worker, so the
// accumulation sites — and therefore the floating-point reduction order —
// are pinned by the shard partition alone.
func (ws *Workspace) shardParts(ns, np, nt int) []ShardResult {
	ws.parts = slices.Grow(ws.parts[:0], ns)[:ns]
	for i := range ws.parts {
		r := &ws.parts[i]
		r.DTheta = slices.Grow(r.DTheta[:0], np)[:np]
		r.DiagT = slices.Grow(r.DiagT[:0], nt)[:nt]
		clear(r.DTheta)
		clear(r.DiagT)
	}
	return ws.parts
}

// mergeShards is the one ordered merge of a backward pass's shard partials,
// run by the sharded engine over its in-process shards and by the dist
// coordinator over its workers' results. It adds the dθ partials into
// dTheta in shard order, then sums the fused-diagonal accumulators in shard
// order into shard 0's (which it overwrites) and contracts the sum against
// the sign tables once per pass. The order depends only on the shard
// partition, so dTheta is bit-identical for every worker count and for both
// engines.
//
//torq:ordered-merge
func mergeShards(prog *Program, dim int, parts []ShardResult, dTheta []float64) {
	for _, r := range parts {
		for i, v := range r.DTheta {
			dTheta[i] += v
		}
	}
	if len(parts) == 0 {
		return
	}
	acc := parts[0].DiagT
	for _, r := range parts[1:] {
		for i, v := range r.DiagT {
			acc[i] += v
		}
	}
	reduceDiagNGrads(prog, acc, dTheta, dim)
}
