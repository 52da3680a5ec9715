package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qsim"
	"repro/internal/trace"
)

// Options configures the coordinator's worker pool.
type Options struct {
	// Workers is the number of local subprocess workers to spawn. Zero
	// falls back to TORQ_DIST_WORKERS, and to 2 when that is unset.
	Workers int
}

// maxShardsPerBatch caps how many shards ride one assignment frame. The
// scheduler only reaches the cap while plenty of work remains — batches
// shrink toward single shards near a pass's tail, so late rebalancing and
// dead-worker re-dispatch keep single-shard granularity.
const maxShardsPerBatch = 16

// pipelineDepth is how many batches beyond the one in service stay queued
// to each worker, hiding frame-transport latency under shard compute.
const pipelineDepth = 2

// shardTimeout bounds one shard's round trip; an exchange covering a batch
// of shards gets it times the batch size. A worker that blows its (scaled)
// timeout is declared dead and its outstanding shards re-dispatched.
const shardTimeout = 60 * time.Second

// worker is one coordinator-side worker handle: a framed transport plus the
// subprocess behind it. During a pass a worker is driven by one
// sender and one receiver goroutine: the sender owns the write half (w,
// ebuf, smBuf), the receiver the read half (r, rbuf, arena, rmBuf); only
// the dead flag, the in-flight counter, and the kill path are shared.
type worker struct {
	id  int
	r   *bufio.Reader
	w   *bufio.Writer
	raw io.Closer
	cmd *exec.Cmd

	circ     *qsim.Circuit // circuit of the last successful handshake
	dead     atomic.Bool
	killOnce sync.Once

	// inflight counts shards sent but not yet answered — the receive
	// timeout scales with it, since the reply to the oldest batch can
	// legitimately wait behind every queued shard's compute.
	inflight atomic.Int32

	// Steady-state transport scratch: frames encode into and read into
	// per-worker buffers, and decoded result arrays borrow the per-worker
	// arena, which resets at pass start — so a pass's results stay valid
	// until the next RunPass (the engine merges them before returning) and
	// the hot path performs no per-frame allocation.
	ebuf  []byte
	rbuf  []byte
	arena f64Arena
	smBuf []shardMsg
	rmBuf []resultMsg
	spBuf []trace.SpanRec
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

func (w *worker) send(typ byte, payload []byte) error {
	if err := writeFrame(w.w, typ, payload); err != nil {
		return err
	}
	return w.w.Flush()
}

// guard arms the worker-death timeout around a blocking frame exchange and
// returns its stop function. Pipes carry no write deadlines, so BOTH
// directions must run under the timer: a wedged worker can block the
// coordinator in send — a full pipe buffer — just as it can block the reply
// read; killing the transport is what unblocks either side.
func (c *coordinator) guard(w *worker) func() bool {
	return c.guardN(w, 1)
}

// guardN is guard with the timeout scaled to an exchange covering `shards`
// shards: shardTimeout stays a per-shard liveness bound no matter how
// coarse the batching or how deep the pipeline.
func (c *coordinator) guardN(w *worker, shards int) func() bool {
	t := shardTimeout
	if shards > 1 {
		t *= time.Duration(shards)
	}
	return time.AfterFunc(t, w.kill).Stop
}

// coordinator owns the worker pool behind the EngineDist backend. One pass
// runs at a time (mu); worker goroutines within a pass touch only their own
// worker plus the shared shard queue and result slots.
type coordinator struct {
	mu      sync.Mutex
	workerN int // configured pool size; 0 = TORQ_DIST_WORKERS or 2
	started bool
	workers []*worker
	nextID  int
	passID  uint64

	// lastFwd describes the most recent retained forward pass; the next
	// backward pass pairs with it when shapes match, routing each backward
	// shard to the worker holding that shard's cached forward states.
	lastFwd *fwdPassInfo

	// spawnEnv is appended to the next spawned subprocess's environment and
	// then cleared — the hook the kill-a-worker recovery tests use to arm
	// exactly one worker with a deterministic mid-pass death.
	spawnEnv []string
}

// fwdPassInfo records which worker ran each shard of a retained forward
// pass, plus the shape fields a backward pass must match to pair with it —
// the pairing is a routing hint only; workers re-validate cached states
// against the backward shard's exact inputs before replaying them.
type fwdPassInfo struct {
	pass   uint64
	circ   *qsim.Circuit
	n      int
	block  int
	active [qsim.MaxTangents]bool
	owner  []int32 // shard index → worker id (-1: not completed/unknown)
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
	c.workers, c.started, c.lastFwd = nil, false, nil
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

// poolSize is the configured worker count: Options.Workers, else
// TORQ_DIST_WORKERS, else 2.
func (c *coordinator) poolSize() int {
	if c.workerN != 0 {
		return c.workerN
	}
	if v, err := strconv.Atoi(os.Getenv("TORQ_DIST_WORKERS")); err == nil && v > 0 {
		return v
	}
	return 2
}

// ensureWorkersLocked brings the pool to its configured size, respawning
// workers that died in earlier passes.
func (c *coordinator) ensureWorkersLocked() error {
	if !c.started {
		for i := 0; i < c.poolSize(); i++ {
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
		Version:     ProtoVersion,
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
	defer c.guard(w)()
	if err := w.send(fHello, encodeHello(hm)); err != nil {
		return err
	}
	typ, body, err := w.recv()
	if err != nil {
		return err
	}
	switch typ {
	case fHelloAck:
		ack, err := decodeHelloAck(body)
		if err != nil {
			return err
		}
		if ack.Version != ProtoVersion {
			return fmt.Errorf("dist: worker protocol version %d, coordinator speaks %d", ack.Version, ProtoVersion)
		}
		if ack.Digest != hm.Digest {
			return fmt.Errorf("dist: worker compiled a different program: %+v vs %+v", ack.Digest, hm.Digest)
		}
		w.circ = circ
		return nil
	case fError:
		em, _ := decodeError(body)
		return fmt.Errorf("dist: worker refused handshake: %s", em.Msg)
	}
	return fmt.Errorf("dist: unexpected handshake reply type %d", typ)
}

func (w *worker) recv() (byte, []byte, error) {
	return readFrame(w.r)
}

// backend implements qsim.DistBackend on the package coordinator.
type backend struct{}

// passSched hands out shard batches to worker senders. Assignment is
// dynamic: a grab takes a batch sized to the work remaining — coarse
// batches while the pool is deep, single shards near the tail, so late
// rebalancing and dead-worker re-dispatch keep single-shard granularity —
// preferring shards whose forward states the worker holds, then unowned
// shards, then stealing hinted shards from slower workers. Shards come back
// via giveBack when a worker dies with them in flight; the pass is complete
// when every shard's result has been accepted.
type passSched struct {
	mu         sync.Mutex
	cond       sync.Cond
	prefer     map[int][]int // worker id → shards whose forward states it holds
	global     []int         // unowned shards, popped from the end
	unassigned int
	remaining  int
	workers    int
	paired     bool // pass carries affinity routing (owner map was supplied)
}

// newPassSched routes shard i to prefer[owner[i]] when that worker is in
// the pass's live set, and to the global pool otherwise (owner may be nil —
// no affinity pairing). Lists are built in descending shard order so the
// pop-from-the-end grab path dispatches ascending.
func newPassSched(ns int, live []*worker, owner []int32) *passSched {
	s := &passSched{
		prefer:     make(map[int][]int, len(live)),
		unassigned: ns,
		remaining:  ns,
		workers:    len(live),
		paired:     owner != nil,
	}
	s.cond.L = &s.mu
	alive := make(map[int]bool, len(live))
	for _, w := range live {
		alive[w.id] = true
	}
	for i := ns - 1; i >= 0; i-- {
		if owner != nil && owner[i] >= 0 && alive[int(owner[i])] {
			id := int(owner[i])
			s.prefer[id] = append(s.prefer[id], i)
		} else {
			s.global = append(s.global, i)
		}
	}
	return s
}

// grab blocks until work is available (a dying worker may give shards back)
// and returns the next batch for w, or nil when the pass has completed or w
// itself has died.
func (s *passSched) grab(w *worker) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.remaining == 0 || w.dead.Load() {
			return nil
		}
		if s.unassigned > 0 {
			break
		}
		s.cond.Wait()
	}
	chunk := s.unassigned / (2 * s.workers)
	if chunk > maxShardsPerBatch {
		chunk = maxShardsPerBatch
	}
	if chunk < 1 {
		chunk = 1
	}
	out := make([]int, 0, chunk)
	own := s.prefer[w.id]
	for len(out) < chunk && len(own) > 0 {
		out = append(out, own[len(own)-1])
		own = own[:len(own)-1]
	}
	s.prefer[w.id] = own
	routed := len(out)
	for len(out) < chunk && len(s.global) > 0 {
		out = append(out, s.global[len(s.global)-1])
		s.global = s.global[:len(s.global)-1]
	}
	for len(out) < chunk {
		// Steal from the worker hoarding the most preferred shards, from
		// the far end of its list — losing the affinity hint only costs the
		// victim's cached forward state a recompute on another worker.
		// Lowest id wins ties so the victim choice is map-order-independent.
		vid, max := 0, 0
		//torq:allow maprange -- max-by-length with lowest-id tie-break; order-insensitive
		for id, l := range s.prefer {
			if len(l) > max || (len(l) == max && max > 0 && id < vid) {
				vid, max = id, len(l)
			}
		}
		if max == 0 {
			break
		}
		victim := s.prefer[vid]
		out = append(out, victim[0])
		s.prefer[vid] = victim[1:]
	}
	s.unassigned -= len(out)
	// Affinity accounting (paired backward passes only): a shard grabbed
	// from the worker's own prefer list rides its cached forward states; a
	// shard grabbed from the global pool or stolen from another owner will
	// recompute on a cold worker.
	if s.paired {
		xstats.affRouted.Add(int64(routed))
		xstats.affMissed.Add(int64(len(out) - routed))
	}
	return out
}

// giveBack returns a dead worker's in-flight shards to the global pool (its
// cached forward states died with it) and wakes idle senders.
func (s *passSched) giveBack(shards []int) {
	if len(shards) == 0 {
		return
	}
	xstats.redispatched.Add(int64(len(shards)))
	s.mu.Lock()
	s.global = append(s.global, shards...)
	s.unassigned += len(shards)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// complete retires accepted shards; the final one wakes every blocked grab.
func (s *passSched) complete(n int) {
	s.mu.Lock()
	s.remaining -= n
	rem := s.remaining
	s.mu.Unlock()
	if rem == 0 {
		s.cond.Broadcast()
	}
}

func (s *passSched) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remaining
}

// wake unblocks grabs so a sender notices its worker died.
func (s *passSched) wake() { s.cond.Broadcast() }

// RunPass partitions the pass into shards and fans them out over the live
// workers in pipelined batches. A worker that dies (transport error,
// timeout, mismatched reply) has its in-flight shards pushed back for the
// survivors, which recompute them statelessly. The pass fails only when
// every worker is gone with shards outstanding.
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
	var live []*worker
	var hsErr error
	for _, w := range c.workers {
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
		live = append(live, w)
	}
	if len(live) == 0 {
		if hsErr != nil {
			return nil, hsErr
		}
		return nil, errors.New("dist: no live workers")
	}

	ns := spec.NumShards()
	results := make([]qsim.ShardResult, ns)
	if ns == 0 {
		// An empty batch has nothing to dispatch; without this return the
		// worker loops would block forever waiting for a completion that
		// only a shard result delivers.
		c.lastFwd = nil
		return results, nil
	}

	// Pair a backward pass with the retained forward whose shape it
	// matches; its owner map seeds the scheduler's affinity routing. The
	// pairing is consumed either way — the workers' caches roll over at the
	// next forward pass.
	var fwdPass uint64
	var owner []int32
	if spec.Backward {
		if lf := c.lastFwd; lf != nil && lf.circ == spec.Circ &&
			lf.n == spec.N && lf.block == spec.Block && lf.active == spec.Active &&
			len(lf.owner) == ns {
			fwdPass, owner = lf.pass, lf.owner
		}
		c.lastFwd = nil
	}
	var fwd *fwdPassInfo
	if !spec.Backward {
		fwd = &fwdPassInfo{
			pass: pass, circ: spec.Circ, n: spec.N, block: spec.Block,
			active: spec.Active, owner: make([]int32, ns),
		}
		for i := range fwd.owner {
			fwd.owner[i] = -1
		}
		c.lastFwd = fwd
	}

	// With fewer shards than workers, the surplus workers get neither
	// shards nor the theta broadcast. On a paired backward pass the workers
	// holding the most forward states participate first, keeping the
	// affinity routing intact through the trim.
	if ns < len(live) {
		if owner != nil {
			counts := make(map[int]int, len(live))
			for _, id := range owner {
				if id >= 0 {
					counts[int(id)]++
				}
			}
			sort.SliceStable(live, func(i, j int) bool {
				return counts[live[i].id] > counts[live[j].id]
			})
		}
		live = live[:ns]
	}

	// The previous pass's decoded results die here: per-worker arenas recycle
	// at pass start, which is why ShardResult arrays are documented as valid
	// only until the next RunPass.
	for _, w := range live {
		w.arena.reset()
		w.inflight.Store(0)
	}

	sched := newPassSched(ns, live, owner)
	// Trace context rides the broadcast: the engine's pass-root span (opened
	// by qsim around this RunPass) parents the transport spans here, and its
	// id crosses the wire so worker-side shard spans stitch under the same
	// tree. Both are zero when tracing is off.
	traceCtx := trace.ContextID()
	var passSpan uint64
	if traceCtx != 0 {
		passSpan = trace.CurrentPass()
	}
	pm := encodePass(passMsg{
		Pass: pass, FwdPass: fwdPass, Trace: traceCtx, Span: passSpan,
		Backward: spec.Backward, Active: spec.Active, Theta: spec.Theta,
	})

	var wg sync.WaitGroup
	for _, w := range live {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.workerRun(w, spec, pass, passSpan, pm, sched, results, fwd)
		}(w)
	}
	wg.Wait()
	if n := sched.outstanding(); n != 0 {
		c.lastFwd = nil
		return nil, fmt.Errorf("dist: pass %d lost all workers with %d shards outstanding", pass, n)
	}
	return results, nil
}

// workerRun drives one worker through a pass with a sender/receiver pair:
// the sender grabs shard batches and writes assignment frames, the receiver
// collects the replies in FIFO order. Splitting the directions is what
// makes pipelining deadlock-free — with both batch and reply frames larger
// than a pipe buffer, a single goroutine writing batch k+1 while the worker
// blocks writing reply k would wedge; here the receiver keeps draining. The
// flights channel carries each in-flight batch from sender to receiver and
// its capacity bounds the pipeline depth.
func (c *coordinator) workerRun(w *worker, spec *qsim.PassSpec, pass, passSpan uint64, pm []byte, sched *passSched, results []qsim.ShardResult, fwd *fwdPassInfo) {
	bcast := trace.Begin(trace.KBroadcast, passSpan)
	bcast.Worker = int32(w.id)
	stop := c.guard(w)
	err := w.send(fPass, pm)
	stop()
	bcast.End()
	if err != nil {
		w.kill()
		sched.wake()
		return
	}
	// A flight is one in-service batch; the send timestamp turns the
	// receiver's FIFO drain into a per-batch round-trip latency measurement
	// (queue wait included — a straggler backs its own pipeline up, which is
	// exactly the signal the dump's outlier check keys on). The batch span
	// covers the same interval, ended by the receiver when the reply lands.
	type flight struct {
		shards []int
		sent   time.Time
		span   trace.Span
	}
	flights := make(chan flight, pipelineDepth)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		failed := false
		for f := range flights {
			shards := f.shards
			if failed {
				xstats.queueDepth.Add(int64(-len(shards)))
				sched.giveBack(shards)
				continue
			}
			if err := c.recvBatch(w, spec, pass, shards, results); err != nil {
				fmt.Fprintf(os.Stderr, "dist: worker %d lost on pass %d (%v); re-dispatching %d shards\n", w.id, pass, err, len(shards))
				w.kill()
				failed = true
				xstats.queueDepth.Add(int64(-len(shards)))
				sched.giveBack(shards)
				sched.wake()
				continue
			}
			observeBatch(w.id, len(shards), time.Since(f.sent).Nanoseconds())
			f.span.End()
			if fwd != nil {
				// Each shard completes exactly once per pass, so these
				// writes never contend across receivers.
				for _, s := range shards {
					fwd.owner[s] = int32(w.id)
				}
			}
			w.inflight.Add(int32(-len(shards)))
			xstats.queueDepth.Add(int64(-len(shards)))
			sched.complete(len(shards))
		}
	}()
	for {
		shards := sched.grab(w)
		if shards == nil {
			break
		}
		w.inflight.Add(int32(len(shards)))
		xstats.queueDepth.Add(int64(len(shards)))
		bsp := trace.Begin(trace.KBatch, passSpan)
		bsp.Worker = int32(w.id)
		if err := c.sendBatch(w, spec, pass, bsp.ID, shards); err != nil {
			w.kill()
			xstats.queueDepth.Add(int64(-len(shards)))
			sched.giveBack(shards)
			sched.wake()
			break
		}
		flights <- flight{shards: shards, sent: time.Now(), span: bsp}
	}
	close(flights)
	wg.Wait()
}

// sendBatch encodes the shards' input rows into the worker's frame buffer
// and ships them as one fShardBatch frame. Row arrays alias the pass spec —
// nothing is copied until the encoder serializes it.
func (c *coordinator) sendBatch(w *worker, spec *qsim.PassSpec, pass, span uint64, shards []int) error {
	nq := spec.NQ
	sms := w.smBuf[:0]
	for _, s := range shards {
		lo, hi := spec.Shard(s)
		sm := shardMsg{Pass: pass, Shard: uint32(s), Angles: spec.Angles[lo*nq : hi*nq]}
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
	w.smBuf = sms
	w.ebuf = encodeShardBatchFrame(w.ebuf, pass, span, sms)
	// The timeout covers the send too — a full pipe buffer against a wedged
	// worker blocks the write exactly like a withheld reply blocks the read.
	xstats.bytesOut.Add(int64(len(w.ebuf)))
	defer c.guardN(w, len(shards))()
	if _, err := w.w.Write(w.ebuf); err != nil {
		return err
	}
	return w.w.Flush()
}

// recvBatch reads one fResultBatch frame and validates and records each
// entry against the batch it answers: same pass, same direction, shards in
// assignment order, every array shaped exactly as the pass demands.
func (c *coordinator) recvBatch(w *worker, spec *qsim.PassSpec, pass uint64, shards []int, results []qsim.ShardResult) error {
	defer c.guardN(w, int(w.inflight.Load()))()
	typ, body, err := readFrameInto(w.r, &w.rbuf)
	if err != nil {
		return err
	}
	xstats.bytesIn.Add(int64(len(body)) + 5) // body + u32 length + type byte
	switch typ {
	case fError:
		em, _ := decodeError(body)
		return fmt.Errorf("worker error: %s", em.Msg)
	case fResultBatch:
	default:
		return fmt.Errorf("unexpected reply type %d", typ)
	}
	w.rmBuf, w.spBuf, err = decodeResultBatchInto(body, &w.arena, w.rmBuf[:0], w.spBuf[:0])
	if err != nil {
		return err
	}
	if len(w.rmBuf) != len(shards) {
		return fmt.Errorf("result batch has %d entries, want %d", len(w.rmBuf), len(shards))
	}
	for i, s := range shards {
		rm := w.rmBuf[i]
		if rm.Pass != pass || int(rm.Shard) != s || rm.Backward != spec.Backward {
			return fmt.Errorf("result for pass %d shard %d (backward=%v), want pass %d shard %d (backward=%v)",
				rm.Pass, rm.Shard, rm.Backward, pass, s, spec.Backward)
		}
		if err := validateResult(spec, s, rm, &results[s]); err != nil {
			return err
		}
	}
	// Stitch the worker's spans into the local ring: the worker cannot know
	// its coordinator-side id, so it is stamped here. Empty on untraced
	// passes — the loop is free.
	for i := range w.spBuf {
		r := w.spBuf[i]
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
