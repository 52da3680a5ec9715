package qsim

import (
	"fmt"

	"repro/internal/trace"
)

// This file is the qsim half of the multi-process executor: the
// coordinator-side distEngine that partitions a pass into the same fixed
// cache-block shards as the in-process sharded engine, and the worker-side
// ShardRunner that executes one shard bit-identically to one sharded-engine
// chunk. Both ends run the sharded engine's own shard path: the runner
// loads a shard into a Workspace backed by its one coefficient cache
// (coeffTables) and runs fwdBlock/bwdBlock on it in the fixed tangent
// layout, and the coordinator merges the ShardResults through mergeShards,
// the sharded engine's ordered merge. The transport between them — process
// spawning, the framed wire protocol, worker death and re-dispatch — lives
// in repro/internal/dist, which plugs in through RegisterDistBackend.
// Keeping all numerics (shard partition, execution, reduction order) in this
// package is what makes the bit-identity guarantee auditable: the dist
// subsystem only moves bytes.

// PassSpec describes one forward or backward pass to a DistBackend. All
// batch-wide arrays are full-batch, row-major n×nq (except Theta); the
// backend slices per-shard rows out with Shard. Slices may alias the
// engine's workspace and are only valid until RunPass returns.
type PassSpec struct {
	Circ *Circuit
	Prog *Program
	// Backward selects the adjoint pass; GZ/GZTans are nil on forward.
	Backward bool
	N, NQ    int
	// Block is the shard size in samples. Backward passes use the in-process
	// sharded engine's cache-block partition, so the shard-order reduction
	// is bit-compatible between the two engines; forward passes reuse the
	// same backward partition (see distEngine.Forward) so a training step's
	// forward and backward shards align 1:1 for forward-state affinity.
	Block  int
	Active [MaxTangents]bool
	Theta  []float64
	Angles []float64
	// AngleTans[k] is non-nil exactly when Active[k].
	AngleTans [MaxTangents][]float64
	GZ        []float64
	GZTans    [MaxTangents][]float64
}

// NumShards reports how many shards the pass partitions into.
func (s *PassSpec) NumShards() int { return shardCount(s.N, s.Block) }

// Shard returns the sample range [lo, hi) of shard i.
func (s *PassSpec) Shard(i int) (lo, hi int) {
	lo = i * s.Block
	hi = min(lo+s.Block, s.N)
	return lo, hi
}

// ShardResult is one shard's output. Forward fills Z/ZTans; backward fills
// the gradient fields. Row arrays cover the shard's samples only; DTheta and
// DiagT are whole-parameter-space partials that the coordinator merges in
// shard-index order.
type ShardResult struct {
	Z          []float64
	ZTans      [MaxTangents][]float64
	DAngles    []float64
	DAngleTans [MaxTangents][]float64
	DTheta     []float64
	DiagT      []float64
}

// DistBackend executes the shards of one pass on worker processes and
// returns one result per shard, indexed by shard. A backend must tolerate
// worker death by re-dispatching the dead worker's outstanding shards; it
// returns an error only when no worker can make progress.
type DistBackend interface {
	RunPass(spec *PassSpec) ([]ShardResult, error)
}

// distBackend is the registered transport. The Engine seam selects engines
// by value (EngineKind), so registration is how the dist subsystem attaches
// without qsim importing it.
var distBackend DistBackend

// RegisterDistBackend installs the transport behind EngineDist. Called from
// repro/internal/dist's init; last registration wins.
func RegisterDistBackend(b DistBackend) { distBackend = b }

// distEngine is the coordinator side of the multi-process executor. It
// partitions a pass into the sharded engine's backward cache blocks, hands
// the shards to the registered DistBackend, and merges the results in shard
// order through the sharded engine's own merge (mergeShards). It fills no
// coefficient table: the workers do.
type distEngine struct{}

// distPass describes the pass whose inputs ws saved to the backend,
// partitioned with the backward pass's block size. Forward z/ztans are
// strictly per-sample (no cross-sample reduction), so the partition never
// affects forward values, while the backward partition pins the gradient
// reduction order. Sharing it makes forward and backward shards of one
// training step align 1:1 by index, which is what lets the transport route
// each backward shard to the worker holding that exact shard's cached
// forward states.
func distPass(p *PQC, ws *Workspace) *PassSpec {
	spec := &PassSpec{
		Circ: p.Circ, Prog: p.Program(),
		N: ws.n, NQ: ws.nq, Block: backwardBlock(ws.val.Dim, ws.active),
		Active: ws.active, Theta: ws.theta, Angles: ws.angles,
	}
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			spec.AngleTans[k] = ws.angleTans[k]
		}
	}
	return spec
}

func runDistPass(spec *PassSpec) []ShardResult {
	if distBackend == nil {
		panic(`qsim: engine "dist" selected but no transport is registered (link repro/internal/dist — it registers itself via RegisterDistBackend)`)
	}
	res, err := distBackend.RunPass(spec)
	if err != nil {
		panic("qsim: dist pass failed: " + err.Error())
	}
	return res
}

//torq:ordered-merge
func (distEngine) Forward(p *PQC, ws *Workspace, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (z []float64, ztans [MaxTangents][]float64) {
	z, ztans = prepForward(p, ws, angles, angleTans, theta)
	spec := distPass(p, ws)
	results := runDistPass(spec)
	msp := trace.Begin(trace.KMerge, trace.CurrentPass())
	nq := ws.nq
	for s, r := range results {
		lo, _ := spec.Shard(s)
		copy(z[lo*nq:], r.Z)
		for k, zt := range ztans {
			if zt != nil {
				copy(zt[lo*nq:], r.ZTans[k])
			}
		}
	}
	msp.End()
	return z, ztans
}

//torq:ordered-merge
func (distEngine) Backward(p *PQC, ws *Workspace, gz []float64, gztans [MaxTangents][]float64, dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta []float64) {
	spec := distPass(p, ws)
	spec.Backward, spec.GZ = true, gz
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			spec.GZTans[k] = gztans[k]
		}
	}
	results := runDistPass(spec)
	msp := trace.Begin(trace.KMerge, trace.CurrentPass())
	// Per-sample gradients: each row belongs to exactly one shard, so the
	// worker's zero-initialized partial adds back as the same value the
	// in-process engine accumulated in place (0 + Σterms is exact).
	nq := ws.nq
	for s, r := range results {
		lo, _ := spec.Shard(s)
		addTo(dAngles[lo*nq:], r.DAngles)
		for k, dat := range dAngleTans {
			if dat != nil {
				addTo(dat[lo*nq:], r.DAngleTans[k])
			}
		}
	}
	mergeShards(spec.Prog, ws.val.Dim, results, dTheta)
	msp.End()
}

// addTo adds src element-wise into the head of dst.
func addTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// ShardRunner executes single shards of a circuit's level-3 program inside a
// worker process, bit-identically to the corresponding sharded-engine chunk:
// a shard's per-sample state evolution depends only on its own rows, and its
// partial accumulators visit samples in the same order whether the shard
// lives at batch offset lo in a big workspace or at offset 0 in a private
// one. Backward shards recompute the shard's forward states first — shards
// stay stateless between passes, which is what makes a dead worker's shard
// re-dispatchable to any survivor.
type ShardRunner struct {
	pqc  PQC
	free map[int]*shardState

	// Forward-state affinity cache: snapshots of the forward ψ-states (and
	// the exact inputs that produced them) retained by ForwardShardRetain,
	// keyed by shard index and pinned to one forward pass id. A matching
	// BackwardShardCached skips the forward recompute; SetForwardPass drops
	// every snapshot the moment the pass id moves on, so stale-pass states
	// can never leak into a later step's gradients.
	fwdPass  uint64
	fwdSnaps map[uint32]*fwdSnapshot
	snapPool []*fwdSnapshot

	// tab backs every shard workspace: one pass splits into dozens of
	// shards that share one theta, so the runner fills a theta's tables
	// once, not once per shard or per shard size.
	tab coeffTables
}

// fwdSnapshot is one shard's retained forward execution: deep copies of the
// post-embedding evolved states and of every input that produced them. The
// input copies make the cache self-validating — BackwardShardCached replays
// a snapshot only when the backward shard's inputs match bit for bit, so a
// mispaired pass id degrades to a recompute, never to a wrong gradient.
type fwdSnapshot struct {
	n         int
	active    [MaxTangents]bool
	angles    []float64
	angleTans [MaxTangents][]float64
	theta     []float64
	valRe     []float64
	valIm     []float64
	tanRe     [MaxTangents][]float64
	tanIm     [MaxTangents][]float64
}

// shardState is the runner's reusable per-shard-size state: the workspace
// plus one buffer for every output a shard produces, every tangent channel
// included. Shards arrive sequentially per session and results are copied
// to the wire before the next shard runs, so reusing the buffers keeps the
// per-shard hot path allocation-free instead of feeding the GC one garbage
// generation per shard.
type shardState struct {
	ws  *Workspace
	out ShardResult
}

// NewShardRunner compiles circ at level 3 and prepares a per-shard-size
// state cache. Before any table is allocated, it refuses a circuit whose
// full-register diagonal tables would exceed maxTableBytes.
func NewShardRunner(circ *Circuit, maxTableBytes int) (*ShardRunner, error) {
	prog := fuseProgram(circ)
	if n := prog.diagTableBytes(); n > maxTableBytes {
		return nil, fmt.Errorf("qsim: circuit needs %d bytes of diagonal tables (bound %d)", n, maxTableBytes)
	}
	prog.layout()
	return &ShardRunner{
		pqc:      PQC{Circ: circ, Eng: EngineDist, prog: prog},
		free:     make(map[int]*shardState),
		fwdSnaps: make(map[uint32]*fwdSnapshot),
	}, nil
}

// MaxShard is the block a coordinator partitions passes with these active
// channels by (PassSpec.Block): no shard it sends holds more samples.
func (r *ShardRunner) MaxShard(active [MaxTangents]bool) int {
	return backwardBlock(1<<r.pqc.Circ.NumQubits, active)
}

// SetForwardPass pins the forward pass the affinity cache serves. Any pass
// id change — a new forward pass opening, or a backward pass naming the
// forward it pairs with — drops every snapshot from other passes, so the
// cache holds states of at most one forward pass at a time.
func (r *ShardRunner) SetForwardPass(pass uint64) {
	if pass == r.fwdPass {
		return
	}
	//torq:allow maprange -- whole-map drain; pool recycling order never reaches results
	for s, snap := range r.fwdSnaps {
		r.snapPool = append(r.snapPool, snap)
		delete(r.fwdSnaps, s)
	}
	r.fwdPass = pass
}

// CachedForwardShards reports how many forward-state snapshots the runner
// currently holds (test and introspection hook).
func (r *ShardRunner) CachedForwardShards() int { return len(r.fwdSnaps) }

// Circuit returns the runner's circuit.
func (r *ShardRunner) Circuit() *Circuit { return r.pqc.Circ }

// Digest returns the compiled program's digest for handshake validation.
func (r *ShardRunner) Digest() ProgramDigest { return r.pqc.Program().Digest() }

func (r *ShardRunner) state(n int) *shardState {
	if s := r.free[n]; s != nil {
		return s
	}
	nq := r.pqc.Circ.NumQubits
	rows := func() []float64 { return make([]float64, n*nq) }
	s := &shardState{ws: NewWorkspace(n, nq), out: ShardResult{
		Z:       rows(),
		DAngles: rows(),
		DTheta:  make([]float64, r.pqc.Circ.NumParams),
		DiagT:   make([]float64, r.pqc.Program().ndiag*(1<<nq)),
	}}
	for k := 0; k < MaxTangents; k++ {
		s.out.ZTans[k], s.out.DAngleTans[k] = rows(), rows()
	}
	s.ws.tab = &r.tab
	r.free[n] = s
	return s
}

// load readies the state of an n-sample shard: it saves the shard's inputs,
// with nil for every inactive tangent channel, and fills the runner's
// forward tables for theta.
func (r *ShardRunner) load(n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) *shardState {
	s := r.state(n)
	for k := range angleTans {
		if !active[k] {
			angleTans[k] = nil
		}
	}
	s.ws.saveInputs(&r.pqc, angles, angleTans, theta)
	r.tab.fill(r.pqc.Program(), theta, false)
	return s
}

// ForwardShard runs the forward pass over one shard of n samples and returns
// the shard's z rows and tangent rows (nil for inactive channels). Returned
// slices are owned by the runner and valid until the next *Shard call.
//
//torq:hotpath
func (r *ShardRunner) ForwardShard(n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (z []float64, ztans [MaxTangents][]float64) {
	s := r.load(n, active, angles, angleTans, theta)
	for k := range ztans {
		if active[k] {
			ztans[k] = s.out.ZTans[k]
		}
	}
	fwdBlock(s.ws, r.pqc.Program(), 0, n, s.out.Z, ztans)
	return s.out.Z, ztans
}

// BackwardShard recomputes the shard's forward states and runs the adjoint
// pass over it, returning gradient partials: per-sample dAngles/dAngleTans
// rows, the per-parameter dTheta partial, and the raw fused-diagonal
// accumulator (contracted by the coordinator after the shard-order merge,
// exactly as the in-process sharded engine does). Returned slices are owned
// by the runner and valid until the next *Shard call.
//
//torq:hotpath
func (r *ShardRunner) BackwardShard(n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta, gz []float64, gztans [MaxTangents][]float64) (dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta, diagT []float64) {
	r.ForwardShard(n, active, angles, angleTans, theta)
	return r.runAdjoint(r.free[n], gz, gztans)
}

// runAdjoint runs the adjoint walk over a loaded workspace whose forward
// states are already in place — freshly recomputed (BackwardShard) or
// restored from a snapshot (BackwardShardCached) — and returns the shard's
// gradient partials.
//
//torq:hotpath
func (r *ShardRunner) runAdjoint(s *shardState, gz []float64, gztans [MaxTangents][]float64) (dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta, diagT []float64) {
	prog := r.pqc.Program()
	r.tab.fill(prog, s.ws.theta, true)
	// The adjoint walk accumulates (+=) into every gradient buffer, so the
	// reused ones must start zeroed.
	out := &s.out
	clear(out.DAngles)
	for k := range dAngleTans {
		if s.ws.active[k] {
			dAngleTans[k] = out.DAngleTans[k]
			clear(dAngleTans[k])
		}
	}
	clear(out.DTheta)
	clear(out.DiagT)
	bwdBlock(s.ws, prog, 0, s.ws.n, gz, gztans, out.DAngles, dAngleTans, bwdScratch{dth: out.DTheta, diagT: out.DiagT})
	return out.DAngles, dAngleTans, out.DTheta, out.DiagT
}

// ForwardShardRetain is ForwardShard plus a snapshot of the evolved states
// and their inputs under the given shard index, for a later
// BackwardShardCached of the same pass to replay.
func (r *ShardRunner) ForwardShardRetain(shard uint32, n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (z []float64, ztans [MaxTangents][]float64) {
	z, ztans = r.ForwardShard(n, active, angles, angleTans, theta)
	ws := r.free[n].ws
	var snap *fwdSnapshot
	if len(r.snapPool) > 0 {
		snap = r.snapPool[len(r.snapPool)-1]
		r.snapPool = r.snapPool[:len(r.snapPool)-1]
	} else {
		snap = &fwdSnapshot{}
	}
	snap.n = n
	snap.active = active
	snap.angles = append(snap.angles[:0], angles...)
	snap.theta = append(snap.theta[:0], theta...)
	snap.valRe = append(snap.valRe[:0], ws.val.Re...)
	snap.valIm = append(snap.valIm[:0], ws.val.Im...)
	for k := 0; k < MaxTangents; k++ {
		if active[k] {
			snap.angleTans[k] = append(snap.angleTans[k][:0], angleTans[k]...)
			snap.tanRe[k] = append(snap.tanRe[k][:0], ws.tan[k].Re...)
			snap.tanIm[k] = append(snap.tanIm[k][:0], ws.tan[k].Im...)
		} else {
			snap.angleTans[k] = snap.angleTans[k][:0]
			snap.tanRe[k] = snap.tanRe[k][:0]
			snap.tanIm[k] = snap.tanIm[k][:0]
		}
	}
	r.fwdSnaps[shard] = snap
	return z, ztans
}

// BackwardShardCached is BackwardShard minus the forward recompute: it
// restores the shard's forward states from the snapshot ForwardShardRetain
// took under the same shard index, then runs the adjoint walk on them. The
// restored states are the exact bits the recompute would produce (the
// snapshot is validated against the backward shard's full inputs before
// use), so the gradients are bit-identical either way. ok is false — and
// nothing is computed — when no valid snapshot exists: the caller falls back
// to the stateless BackwardShard.
//
//torq:hotpath
func (r *ShardRunner) BackwardShardCached(shard uint32, n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta, gz []float64, gztans [MaxTangents][]float64) (dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta, diagT []float64, ok bool) {
	snap := r.fwdSnaps[shard]
	if snap == nil || snap.n != n || snap.active != active ||
		!bitsEqualF64(snap.angles, angles) || !bitsEqualF64(snap.theta, theta) {
		return dAngles, dAngleTans, dTheta, diagT, false
	}
	for k := 0; k < MaxTangents; k++ {
		if active[k] && !bitsEqualF64(snap.angleTans[k], angleTans[k]) {
			return dAngles, dAngleTans, dTheta, diagT, false
		}
	}
	// Restore the saved inputs the adjoint reads from the workspace (the
	// angles and angle tangents of the reverse embedding) and the evolved
	// states themselves.
	s := r.load(n, active, angles, angleTans, theta)
	ws := s.ws
	copy(ws.val.Re, snap.valRe)
	copy(ws.val.Im, snap.valIm)
	for k := 0; k < MaxTangents; k++ {
		if active[k] {
			copy(ws.tan[k].Re, snap.tanRe[k])
			copy(ws.tan[k].Im, snap.tanIm[k])
		}
	}
	dAngles, dAngleTans, dTheta, diagT = r.runAdjoint(s, gz, gztans)
	return dAngles, dAngleTans, dTheta, diagT, true
}
