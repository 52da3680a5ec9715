package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// Options configures the coordinator's worker pool.
type Options struct {
	// Workers is the number of local subprocess workers to spawn, in
	// [1, MaxWorkers]. Zero falls back to TORQ_DIST_WORKERS, and to 2 when
	// that is unset.
	Workers int
}

// MaxWorkers bounds the pool size from either source. Every worker is a
// whole process on the coordinator's host holding its own tables and shard
// states, so a count past the host's cores only adds memory and pipe
// traffic; 64 also leaves most of telemetry's maxWorkerSlots per-worker
// series to the respawns of a long run.
const MaxWorkers = 64

// workersEnv is the environment fallback for Options.Workers.
const workersEnv = "TORQ_DIST_WORKERS"

// shardTimeout bounds one shard's round trip; an exchange covering several
// shards gets it times their count. A worker that blows its (scaled)
// timeout is declared dead and its shards re-dispatched.
const shardTimeout = 60 * time.Second

// worker is one coordinator-side worker handle: a framed transport plus the
// subprocess behind it. During a pass one goroutine drives each worker;
// only the dead flag and the kill path are shared.
type worker struct {
	id  int
	r   *bufio.Reader
	w   *bufio.Writer
	raw io.Closer
	cmd *exec.Cmd

	circ     *qsim.Circuit // circuit of the last successful handshake
	dead     atomic.Bool
	killOnce sync.Once

	// Steady-state transport scratch: frames encode through out and read
	// into rbuf, and decoded result arrays borrow in's arena, which resets
	// at pass start — so a pass's results stay valid until the next RunPass
	// (the engine merges them before returning) and the hot path performs
	// no per-frame allocation.
	rbuf    []byte
	in, out wire
	batch   shardBatch
	reply   resultBatch
}

// kill tears the transport down (idempotent, safe from timeout callbacks):
// closing the stdin pipe unblocks any in-flight write, and the async Wait
// both reaps the child and closes the parent side of the stdout pipe
// (unblocking any in-flight read) — without it every dead worker would leak
// one pipe fd until a GC finalizer ran.
func (w *worker) kill() {
	w.dead.Store(true)
	w.killOnce.Do(func() {
		xstats.workerKills.Add(1)
		markWorkerDead(w.id)
		w.raw.Close()
		w.cmd.Process.Kill()
		go w.cmd.Wait() // reap + release pipes without blocking callers
	})
}

func (w *worker) send(frame []byte) error {
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	return w.w.Flush()
}

// guard arms the worker-death timeout, shardTimeout per shard, around a
// blocking frame exchange and returns its stop function. Pipes carry no
// write deadlines, so BOTH directions must run under the timer: a wedged
// worker can block the coordinator in send — a full pipe buffer — just as
// it can block the reply read; killing the transport is what unblocks
// either side.
func guard(w *worker, shards int) func() bool {
	return time.AfterFunc(shardTimeout*time.Duration(shards), w.kill).Stop
}

// coordinator owns the worker pool behind the EngineDist backend. One pass
// runs at a time (mu); worker goroutines within a pass touch only their own
// worker and their shards' result slots. A worker's index in
// workers is its slot: shard s of every pass belongs to slot
// s mod len(workers), and a respawned worker takes over its dead
// predecessor's slot.
type coordinator struct {
	mu      sync.Mutex
	workerN int // configured pool size; 0 = TORQ_DIST_WORKERS or 2
	started bool
	workers []*worker
	nextID  int
	passID  uint64

	// The last forward pass's shape and the id of the worker live in each
	// slot then (0: none), for the affinity accounting of the backward
	// that follows it; fwdIDs is nil once a backward has consumed them.
	fwdShape passShape
	fwdIDs   []int

	// spawnEnv is appended to the next spawned subprocess's environment and
	// then cleared — the hook the kill-a-worker recovery tests use to arm
	// exactly one worker with a deterministic mid-pass death.
	spawnEnv []string
}

// passShape is what a backward must share with the forward before it to be
// its training step's second half.
type passShape struct {
	circ     *qsim.Circuit
	n, block int
	active   [qsim.MaxTangents]bool
}

var coord coordinator

// Configure replaces the coordinator's options (a zero Workers keeps the
// environment default), shutting down any running workers so the next pass
// starts a fresh pool.
func Configure(o Options) {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	coord.shutdownLocked()
	coord.workerN = o.Workers
}

// Shutdown kills every worker process. The next pass respawns the pool;
// safe to call at any quiesced point.
func Shutdown() {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	coord.shutdownLocked()
}

func (c *coordinator) shutdownLocked() {
	for _, w := range c.workers {
		w.kill()
	}
	c.workers, c.started, c.fwdIDs = nil, false, nil
}

// spawnProc starts one subprocess worker: the current binary re-executed
// with TORQ_DIST_WORKER=stdio, which this package's init intercepts.
func (c *coordinator) spawnProc() (*worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: cannot self-exec a worker: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerModeEnv+"=stdio")
	cmd.Env = append(cmd.Env, c.spawnEnv...)
	c.spawnEnv = nil
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: spawning worker %q: %w", exe, err)
	}
	c.nextID++
	registerWorkerStats(c.nextID)
	return &worker{
		id:  c.nextID,
		r:   bufio.NewReaderSize(stdout, 1<<16),
		w:   bufio.NewWriterSize(stdin, 1<<16),
		raw: stdin,
		cmd: cmd,
	}, nil
}

// PoolSize is the worker count the next pool starts with: Options.Workers,
// else TORQ_DIST_WORKERS, else 2. A set value that is not an integer in
// [1, MaxWorkers] is an error naming its source — the error the first pass
// would fail with, so a command can refuse the setting before training.
func PoolSize() (int, error) {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	return coord.poolSize()
}

func (c *coordinator) poolSize() (int, error) {
	src, v := "Options.Workers", strconv.Itoa(c.workerN)
	if c.workerN == 0 {
		src, v = workersEnv, os.Getenv(workersEnv)
		if v == "" {
			return 2, nil
		}
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > MaxWorkers {
		return 0, fmt.Errorf("dist: %s is %q, want a worker count in [1, %d]", src, v, MaxWorkers)
	}
	return n, nil
}

// ensureWorkersLocked brings the pool to its configured size, respawning
// workers that died in earlier passes.
func (c *coordinator) ensureWorkersLocked() error {
	if !c.started {
		n, err := c.poolSize()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			w, err := c.spawnProc()
			if err != nil {
				// Tear the partial pool down rather than dropping live
				// handles: the next attempt re-enters this branch, and
				// orphaned subprocesses would linger on their stdin pipes.
				c.shutdownLocked()
				return err
			}
			c.workers = append(c.workers, w)
		}
		c.started = true
	} else {
		for i, w := range c.workers {
			if !w.dead.Load() {
				continue
			}
			nw, err := c.spawnProc()
			if err != nil {
				fmt.Fprintf(os.Stderr, "dist: replacing dead worker %d: %v\n", w.id, err)
				continue
			}
			c.workers[i] = nw
		}
	}
	for _, w := range c.workers {
		if !w.dead.Load() {
			return nil
		}
	}
	return errors.New("dist: no live workers")
}

// handshake pins one worker to the pass's circuit and compiled program.
func (c *coordinator) handshake(w *worker, spec *qsim.PassSpec) error {
	circ := spec.Circ
	hm := helloMsg{
		Name:        circ.Name,
		NumQubits:   circ.NumQubits,
		Layers:      circ.Layers,
		Reupload:    circ.Reupload,
		NumParams:   circ.NumParams,
		Gates:       circ.Gates,
		LayerStarts: circ.LayerStarts(),
		Digest:      spec.Prog.Digest(),
	}
	xstats.handshakes.Add(1)
	defer guard(w, 1)()
	if err := w.send(w.out.encode(fHello, &hm)); err != nil {
		return err
	}
	typ, body, err := readFrameInto(w.r, &w.rbuf)
	if err != nil {
		return err
	}
	switch typ {
	case fHelloAck:
		var ack helloAckMsg
		if err := w.in.decode(body, &ack); err != nil {
			return err
		}
		if ack.Digest != hm.Digest {
			return fmt.Errorf("dist: worker compiled a different program: %+v vs %+v", ack.Digest, hm.Digest)
		}
		w.circ = circ
		return nil
	case fError:
		var em errorMsg
		_ = w.in.decode(body, &em) // a garbled refusal still refuses
		return fmt.Errorf("dist: worker refused handshake: %s", em.Msg)
	}
	return fmt.Errorf("dist: unexpected handshake reply type %d", typ)
}

// backend implements qsim.DistBackend on the package coordinator.
type backend struct{}

// RunPass runs one exchange per worker: a request carrying the pass header
// and every shard the worker owns, answered by one result frame. A worker
// that dies (transport error, timeout, mismatched reply) has its shards
// dealt to the survivors in another round; they recompute them from the
// inputs every request carries. Each round that fails kills a worker, so a
// pass takes at most one round per worker, and it fails only when every
// worker is gone with shards outstanding.
func (backend) RunPass(spec *qsim.PassSpec) ([]qsim.ShardResult, error) {
	c := &coord
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureWorkersLocked(); err != nil {
		return nil, err
	}
	c.passID++
	pass := c.passID
	xstats.passes.Add(1)
	if spec.Backward {
		xstats.bwdPasses.Add(1)
	} else {
		xstats.fwdPasses.Add(1)
	}

	// Handshake lazily: only workers whose session is pinned to a different
	// circuit (or fresh workers) pay it, once per circuit change.
	live := make([]bool, len(c.workers))
	var nLive int
	var hsErr error
	for i, w := range c.workers {
		if w.dead.Load() {
			continue
		}
		if w.circ != spec.Circ {
			if err := c.handshake(w, spec); err != nil {
				// Surface every refusal: a refused worker is respawned and
				// re-refused on each pass while the pool runs at reduced
				// capacity, so a silent failure would hide the cause.
				fmt.Fprintf(os.Stderr, "dist: worker %d handshake failed: %v (removed from pool this pass)\n", w.id, err)
				hsErr = err
				w.kill()
				continue
			}
		}
		live[i] = true
		nLive++
	}
	if nLive == 0 {
		if hsErr != nil {
			return nil, hsErr
		}
		return nil, errors.New("dist: no live workers")
	}

	ns := spec.NumShards()
	results := make([]qsim.ShardResult, ns)
	if ns == 0 {
		return results, nil
	}
	c.countAffinity(spec, live)

	// Trace context rides every request: the engine's pass-root span (opened
	// by qsim around this RunPass) parents the exchange spans here, and each
	// exchange's span id crosses the wire so worker-side shard spans stitch
	// under the same tree. Both are zero when tracing is off.
	traceCtx := trace.ContextID()
	var passSpan uint64
	if traceCtx != 0 {
		passSpan = trace.CurrentPass()
	}
	// The previous pass's decoded results die here: per-worker arenas
	// recycle at pass start, which is why ShardResult arrays are documented
	// as valid only until the next RunPass.
	for slot, w := range c.workers {
		if live[slot] {
			w.in.arena.reset()
		}
	}
	todo := make([]int, ns)
	for s := range todo {
		todo[s] = s
	}
	for len(todo) > 0 {
		dealt := deal(todo, live)
		if dealt == nil {
			return nil, fmt.Errorf("dist: pass %d lost all workers with %d shards outstanding", pass, len(todo))
		}
		var wg sync.WaitGroup
		for slot, w := range c.workers {
			if len(dealt[slot]) > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.exchange(w, spec, pass, traceCtx, passSpan, dealt[slot], results)
				}()
			}
		}
		wg.Wait()
		todo = todo[:0]
		for slot, w := range c.workers {
			if live[slot] && w.dead.Load() {
				live[slot] = false
				todo = append(todo, dealt[slot]...)
			}
		}
		slices.Sort(todo)
		xstats.redispatched.Add(int64(len(todo)))
	}
	return results, nil
}

// deal gives each shard to its owner, slot s mod len(live), when that slot
// is live, and the rest round-robin over the live slots in the order given.
// It returns nil when no slot is live.
func deal(shards []int, live []bool) [][]int {
	var slots []int
	for slot, ok := range live {
		if ok {
			slots = append(slots, slot)
		}
	}
	if len(slots) == 0 {
		return nil
	}
	out := make([][]int, len(live))
	next := 0
	for _, s := range shards {
		slot := s % len(live)
		if !live[slot] {
			slot = slots[next%len(slots)]
			next++
		}
		out[slot] = append(out[slot], s)
	}
	return out
}

// countAffinity keeps the affinity series. A forward records its shape and
// the worker live in each slot; the backward that follows it with the same
// shape counts each shard once, routed when the shard's slot still holds
// the worker that ran its forward (whose kept states it will reuse) and
// missed otherwise. Any other backward counts nothing.
func (c *coordinator) countAffinity(spec *qsim.PassSpec, live []bool) {
	shape := passShape{circ: spec.Circ, n: spec.N, block: spec.Block, active: spec.Active}
	if !spec.Backward {
		c.fwdShape, c.fwdIDs = shape, c.fwdIDs[:0]
		for slot, w := range c.workers {
			id := 0
			if live[slot] {
				id = w.id
			}
			c.fwdIDs = append(c.fwdIDs, id)
		}
		return
	}
	if c.fwdIDs != nil && c.fwdShape == shape {
		ns, routed := spec.NumShards(), 0
		for s := 0; s < ns; s++ {
			slot := s % len(c.workers)
			if live[slot] && c.workers[slot].id == c.fwdIDs[slot] {
				routed++
			}
		}
		xstats.affRouted.Add(int64(routed))
		xstats.affMissed.Add(int64(ns - routed))
	}
	c.fwdIDs = nil
}

// exchange sends w one request carrying the pass header and the input rows
// of shards, then reads and checks its reply. Row arrays alias the pass
// spec — nothing is copied until the encoder serializes them. A failed
// exchange kills w; RunPass re-deals its shards.
func (c *coordinator) exchange(w *worker, spec *qsim.PassSpec, pass, traceCtx, passSpan uint64, shards []int, results []qsim.ShardResult) {
	sp := trace.Begin(trace.KBatch, passSpan)
	sp.Worker = int32(w.id)
	nq := spec.NQ
	sms := w.batch.Shards[:0]
	for _, s := range shards {
		lo, hi := spec.Shard(s)
		sm := shardMsg{Shard: uint32(s), Angles: spec.Angles[lo*nq : hi*nq]}
		for k := 0; k < qsim.MaxTangents; k++ {
			if spec.AngleTans[k] != nil {
				sm.AngleTans[k] = spec.AngleTans[k][lo*nq : hi*nq]
			}
		}
		if spec.Backward {
			if spec.GZ != nil {
				sm.GZ = spec.GZ[lo*nq : hi*nq]
			}
			for k := 0; k < qsim.MaxTangents; k++ {
				if spec.GZTans[k] != nil {
					sm.GZTans[k] = spec.GZTans[k][lo*nq : hi*nq]
				}
			}
		}
		sms = append(sms, sm)
	}
	w.batch = shardBatch{Pass: pass, Trace: traceCtx, Span: sp.ID,
		Backward: spec.Backward, Active: spec.Active, Theta: spec.Theta, Shards: sms}
	frame := w.out.encode(fShardBatch, &w.batch)
	xstats.bytesOut.Add(int64(len(frame)))
	start := time.Now()
	stop := guard(w, len(shards))
	err := w.send(frame)
	if err == nil {
		err = c.recvBatch(w, spec, pass, shards, results)
	}
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: worker %d lost on pass %d with %d shards: %v\n", w.id, pass, len(shards), err)
		w.kill()
		return
	}
	observeBatch(w.id, len(shards), time.Since(start).Nanoseconds())
	sp.End()
}

// recvBatch reads one fResultBatch frame and validates and records each
// entry against the request it answers: same pass, same direction, shards
// in request order, every array shaped exactly as the pass demands.
func (c *coordinator) recvBatch(w *worker, spec *qsim.PassSpec, pass uint64, shards []int, results []qsim.ShardResult) error {
	typ, body, err := readFrameInto(w.r, &w.rbuf)
	if err != nil {
		return err
	}
	xstats.bytesIn.Add(int64(len(body)) + 5) // body + u32 length + type byte
	switch typ {
	case fError:
		var em errorMsg
		_ = w.in.decode(body, &em) // a garbled error still fails the batch
		return fmt.Errorf("worker error: %s", em.Msg)
	case fResultBatch:
	default:
		return fmt.Errorf("unexpected reply type %d", typ)
	}
	rb := &w.reply
	if err := w.in.decode(body, rb); err != nil {
		return err
	}
	if rb.Pass != pass || rb.Backward != spec.Backward {
		return fmt.Errorf("result batch for pass %d (backward=%v), want pass %d (backward=%v)",
			rb.Pass, rb.Backward, pass, spec.Backward)
	}
	if len(rb.Results) != len(shards) {
		return fmt.Errorf("result batch has %d entries, want %d", len(rb.Results), len(shards))
	}
	for i, s := range shards {
		rm := rb.Results[i]
		if int(rm.Shard) != s {
			return fmt.Errorf("result for shard %d, want shard %d", rm.Shard, s)
		}
		if err := validateResult(spec, s, rm, &results[s]); err != nil {
			return err
		}
	}
	// Stitch the worker's spans into the local ring: the worker cannot know
	// its coordinator-side id, so it is stamped here. Empty on untraced
	// passes — the loop is free.
	for i := range rb.Spans {
		r := rb.Spans[i]
		r.Worker = int32(w.id)
		trace.Ingest(r)
	}
	return nil
}

// validateResult checks the result arrays have the pass's expected shapes
// before accepting them — a worker that disagrees about sizes is broken, and
// catching it here turns silent corruption into a re-dispatch.
func validateResult(spec *qsim.PassSpec, s int, rm resultMsg, out *qsim.ShardResult) error {
	lo, hi := spec.Shard(s)
	rows := (hi - lo) * spec.NQ
	checkRows := func(name string, got []float64, want int) error {
		if len(got) != want {
			return fmt.Errorf("shard %d: %s has %d values, want %d", s, name, len(got), want)
		}
		return nil
	}
	if !spec.Backward {
		if err := checkRows("z", rm.Z, rows); err != nil {
			return err
		}
		for k := 0; k < qsim.MaxTangents; k++ {
			want := 0
			if spec.Active[k] {
				want = rows
			}
			if err := checkRows("ztan", rm.ZTans[k], want); err != nil {
				return err
			}
		}
		out.Z = rm.Z
		out.ZTans = rm.ZTans
		return nil
	}
	if err := checkRows("dAngles", rm.DAngles, rows); err != nil {
		return err
	}
	for k := 0; k < qsim.MaxTangents; k++ {
		want := 0
		if spec.Active[k] {
			want = rows
		}
		if err := checkRows("dAngleTan", rm.DAngleTans[k], want); err != nil {
			return err
		}
	}
	if err := checkRows("dTheta", rm.DTheta, spec.Circ.NumParams); err != nil {
		return err
	}
	if err := checkRows("diagT", rm.DiagT, spec.Prog.NumDiagAccums()*(1<<spec.NQ)); err != nil {
		return err
	}
	out.DAngles = rm.DAngles
	out.DAngleTans = rm.DAngleTans
	out.DTheta = rm.DTheta
	out.DiagT = rm.DiagT
	return nil
}
