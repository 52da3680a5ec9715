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
	// same backward partition (see distPass) so a training step's forward
	// and backward shards align 1:1 and one worker can own both halves.
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
// training step align 1:1 by index, which is what lets the transport give
// both halves of shard s to one owner worker, whose backward then runs on
// the states its forward kept.
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
// one.
//
// Each shard index owns a record: the value and tangent states its forward
// left behind and the inputs that produced them. The shard runs on those
// buffers directly, so keeping them costs no copy. A backward shard whose
// inputs match its record of the current forward pass bit for bit runs the
// adjoint on the kept states; any other recomputes them first, which is
// what lets a dead worker's shard re-dispatch to any survivor.
type ShardRunner struct {
	pqc  PQC
	free map[int]*shardState
	recs map[uint32]*shardRec
	gen  uint64 // the current forward pass; records of earlier ones hold less

	// tab backs every shard workspace: one pass splits into dozens of
	// shards that share one theta, so the runner fills a theta's tables
	// once, not once per shard or per shard size.
	tab coeffTables
}

// shardRec is one shard's forward record. gen is the forward pass that left
// the states, and 0 once an adjoint has uncomputed them.
type shardRec struct {
	gen       uint64
	active    [MaxTangents]bool
	theta     []float64
	angles    []float64
	angleTans [MaxTangents][]float64
	val       *State
	tan       [MaxTangents]*State
}

// holds reports whether rec keeps the states of forward pass gen over
// exactly these inputs.
func (rec *shardRec) holds(gen uint64, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) bool {
	if rec == nil || rec.gen != gen || rec.active != active ||
		!bitsEqualF64(rec.angles, angles) || !bitsEqualF64(rec.theta, theta) {
		return false
	}
	for k := range angleTans {
		if active[k] && !bitsEqualF64(rec.angleTans[k], angleTans[k]) {
			return false
		}
	}
	return true
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
		pqc:  PQC{Circ: circ, Eng: EngineDist, prog: prog},
		free: make(map[int]*shardState),
		recs: make(map[uint32]*shardRec),
		gen:  1,
	}, nil
}

// MaxShard is the block a coordinator partitions passes with these active
// channels by (PassSpec.Block): no shard it sends holds more samples.
func (r *ShardRunner) MaxShard(active [MaxTangents]bool) int {
	return backwardBlock(1<<r.pqc.Circ.NumQubits, active)
}

// BeginForwardPass invalidates every shard record; their buffers stay for
// the new pass to reuse.
func (r *ShardRunner) BeginForwardPass() { r.gen++ }

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

// load readies an n-sample shard: it points the workspace of its size at
// the shard's record, (re)allocating the record's buffers on first use or
// a size change, saves the inputs into them (nil for every inactive tangent
// channel), and fills the runner's forward tables for theta.
func (r *ShardRunner) load(shard uint32, n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (*shardState, *shardRec) {
	s, nq := r.state(n), r.pqc.Circ.NumQubits
	rec := r.recs[shard]
	if rec == nil || rec.val.N != n {
		rec = &shardRec{val: NewZeroState(n, nq), angles: make([]float64, n*nq)}
		r.recs[shard] = rec
	}
	ws := s.ws
	ws.val, ws.angles = rec.val, rec.angles
	for k := range angleTans {
		if !active[k] {
			angleTans[k] = nil
			continue
		}
		if rec.tan[k] == nil {
			rec.tan[k], rec.angleTans[k] = NewZeroState(n, nq), make([]float64, n*nq)
		}
		ws.ensureTangent(k)
		ws.tan[k], ws.angleTans[k] = rec.tan[k], rec.angleTans[k]
	}
	ws.saveInputs(&r.pqc, angles, angleTans, theta)
	rec.active, rec.theta = active, append(rec.theta[:0], theta...)
	r.tab.fill(r.pqc.Program(), theta, false)
	return s, rec
}

// ForwardShard runs the forward pass over shard `shard` of n samples,
// keeping its states for the shard's backward, and returns the shard's z
// rows and tangent rows (nil for inactive channels). Returned slices are
// owned by the runner and valid until the next *Shard call.
//
//torq:hotpath
func (r *ShardRunner) ForwardShard(shard uint32, n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta []float64) (z []float64, ztans [MaxTangents][]float64) {
	s, rec := r.load(shard, n, active, angles, angleTans, theta)
	fwdBlock(s.ws, r.pqc.Program(), 0, n, s.out.Z, s.out.ZTans)
	rec.gen = r.gen
	for k := range ztans {
		if active[k] {
			ztans[k] = s.out.ZTans[k]
		}
	}
	return s.out.Z, ztans
}

// BackwardShard runs the adjoint pass over shard `shard`, returning
// gradient partials: per-sample dAngles/dAngleTans rows, the per-parameter
// dTheta partial, and the raw fused-diagonal accumulator (contracted by the
// coordinator after the shard-order merge, exactly as the in-process
// sharded engine does). It runs on the states the shard's forward kept when
// the inputs match them bit for bit (cached), and recomputes them
// otherwise; the gradients are the same bits either way. Returned slices
// are owned by the runner and valid until the next *Shard call.
//
//torq:hotpath
func (r *ShardRunner) BackwardShard(shard uint32, n int, active [MaxTangents]bool, angles []float64, angleTans [MaxTangents][]float64, theta, gz []float64, gztans [MaxTangents][]float64) (dAngles []float64, dAngleTans [MaxTangents][]float64, dTheta, diagT []float64, cached bool) {
	cached = r.recs[shard].holds(r.gen, active, angles, angleTans, theta)
	s, rec := r.load(shard, n, active, angles, angleTans, theta)
	prog := r.pqc.Program()
	if !cached {
		fwdBlock(s.ws, prog, 0, n, s.out.Z, s.out.ZTans)
	}
	rec.gen = 0 // the adjoint uncomputes the states in place
	r.tab.fill(prog, theta, true)
	// The adjoint walk accumulates (+=) into every gradient buffer, so the
	// reused ones must start zeroed.
	out := &s.out
	clear(out.DAngles)
	for k := range dAngleTans {
		if active[k] {
			dAngleTans[k] = out.DAngleTans[k]
			clear(dAngleTans[k])
		}
	}
	clear(out.DTheta)
	clear(out.DiagT)
	bwdBlock(s.ws, prog, 0, n, gz, gztans, out.DAngles, dAngleTans, bwdScratch{dth: out.DTheta, diagT: out.DiagT})
	return out.DAngles, dAngleTans, out.DTheta, out.DiagT, cached
}
