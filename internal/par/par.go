// Package par provides the parallel-execution substrate used throughout the
// repository. It is the CPU stand-in for the GPU parallelism of the paper's
// TorQ simulator: batched tensor kernels are expressed as parallel loops over
// contiguous row blocks, which the runtime fans out across cores.
//
// All entry points dispatch onto a persistent worker pool, so a parallel
// region costs one synchronization rather than one goroutine spawn per
// block. For/ForGrain are the per-kernel loops; RunChunk is the region API
// the sharded circuit-execution engine uses to pay a single fork/join for an
// entire compiled program instead of one per gate.
//
// RunChunk regions are scheduled by a chunked work-stealing scheduler: the
// range is split into chunks, each worker owns a deque seeded with a
// contiguous span of them, and a worker whose deque runs dry steals the top
// half of a victim's remaining span. Uniform workloads execute exactly as a
// static split would (every chunk is consumed by its seeded owner);
// irregular workloads — noise trajectories, uneven shards — no longer idle
// the pool behind the slowest block. The elementwise For/ForGrain loops keep
// the fixed contiguous split.
//
// # Invariants
//
// RunChunk's partition of [0, n) depends only on (n, chunk): fn is invoked
// exactly once per chunk, every chunk starts at a multiple of chunk, and
// the worker bound does not change which [lo, hi) ranges fn sees. Stealing
// only moves whole chunks between workers; it never splits, merges, or
// reorders the per-chunk accumulator slots callers key off lo/chunk. This
// is the foundation the sharded engine's bit-identical merge order is built
// on: any floating-point reduction keyed per chunk is invariant across
// worker counts.
//
// Scheduler telemetry (Stats) is exported through plain atomic counters so
// the ftdc recorder can snapshot it off the hot path; counter increments are
// the only cost the telemetry adds to a region.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// grain is the minimum number of items a goroutine must receive before the
// loop is worth splitting. Below this, scheduling overhead dominates.
const grain = 2048

// override is the SetMaxWorkers bound, 0 when none is set; procs is the
// GOMAXPROCS the last region read. Both are read on every loop entry —
// possibly from inside pool workers while a benchmark goroutine toggles the
// bound — so access is atomic.
var override, procs atomic.Int64

func init() { procs.Store(int64(runtime.GOMAXPROCS(0))) }

// SetMaxWorkers overrides the worker bound (primarily for tests and
// benchmarks that measure serial baselines). n < 1 removes the override, so
// regions follow the current GOMAXPROCS again.
func SetMaxWorkers(n int) { override.Store(int64(max(n, 0))) }

// MaxWorkers reports the worker bound: the SetMaxWorkers override, else the
// GOMAXPROCS the last region read (at start-up, the initial GOMAXPROCS). It
// takes no lock, so it does not read GOMAXPROCS itself.
//
//torq:nolock
func MaxWorkers() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	return int(procs.Load())
}

// workerBound is the bound a region runs under: the SetMaxWorkers override,
// else the current GOMAXPROCS, so a GOMAXPROCS change (go test -cpu N)
// reaches the next region. Reading GOMAXPROCS takes the scheduler's lock.
func workerBound() int {
	if n := override.Load(); n > 0 {
		return int(n)
	}
	n := runtime.GOMAXPROCS(0)
	if int64(n) != procs.Load() {
		procs.Store(int64(n))
	}
	return n
}

// SchedStats is a snapshot of the region scheduler's cumulative telemetry:
// how many regions ran, how many chunks they executed, and how many steals
// rebalanced chunks between workers. Steals far below the chunk count mean
// the load is uniform; steals rivaling it mean the pool is rebalancing
// constantly off an irregular load.
type SchedStats struct {
	Regions uint64 // region entries (RunChunk/For families, serial fast paths included)
	Chunks  uint64 // chunk executions (a serial fast-path region counts as one chunk)
	Steals  uint64 // successful steal operations (each moves ≥1 chunk)
}

var statRegions, statChunks, statSteals atomic.Uint64

// Stats returns the cumulative scheduler telemetry since process start or
// the last ResetStats. The counters are updated atomically but read
// individually, so a snapshot taken while regions are in flight is
// approximate — quiesce first for exact accounting.
//
//torq:nolock
func Stats() SchedStats {
	return SchedStats{
		Regions: statRegions.Load(),
		Chunks:  statChunks.Load(),
		Steals:  statSteals.Load(),
	}
}

// ResetStats zeroes the scheduler telemetry counters.
//
//torq:nolock
func ResetStats() {
	statRegions.Store(0)
	statChunks.Store(0)
	statSteals.Store(0)
}

// pool is the persistent worker set. The job channel is unbuffered: a send
// succeeds only when a worker is parked and ready to run the job now, so a
// job can never sit queued behind workers that are blocked inside a nested
// region's join — submission either hands off to an idle worker or falls
// back to a fresh goroutine, and nested parallel regions cannot deadlock.
var pool struct {
	once sync.Once
	jobs chan func()
}

func ensurePool() {
	pool.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		pool.jobs = make(chan func())
		for i := 0; i < n; i++ {
			go func() {
				for f := range pool.jobs {
					f()
				}
			}()
		}
	})
}

// dispatch hands f to an idle persistent worker, spawning a fresh goroutine
// when none is ready.
func dispatch(f func()) {
	ensurePool()
	select {
	case pool.jobs <- f:
	default:
		go f()
	}
}

// chunkDeque is one worker's share of a region: a contiguous range of
// chunk indices [lo, hi). The owner pops single chunks from the bottom;
// thieves remove the top half of the remaining range in one operation
// (chunked stealing), so a steal costs one lock acquisition regardless of
// how much work it transfers. A plain mutex suffices at this granularity —
// each chunk is a whole sample block streamed through a compiled program,
// so deque operations are orders of magnitude rarer than amplitude updates.
type chunkDeque struct {
	mu     sync.Mutex
	lo, hi int
}

// paddedDeque keeps each worker's deque on its own cache lines. The deques
// of a region used to share an unpadded array, so every owner pop bounced
// the same lines between the cores polling their neighbours for steals.
type paddedDeque struct {
	chunkDeque
	_ [128 - unsafe.Sizeof(chunkDeque{})%128]byte
}

// dequePool recycles deque arrays across regions. Reuse matters twice over:
// it removes the per-region allocation from the epoch hot path, and it keeps
// each worker's deque on the pages the worker already touched — on NUMA
// machines first-touch placement makes a recycled deque local to the socket
// that has been using it, where a fresh allocation lands wherever the
// region-entering goroutine happens to run. A pool (rather than one global
// array) is required because regions nest: an inner region on a pool worker
// must not scribble over its enclosing region's live deques.
var dequePool sync.Pool

func getDeques(workers int) []paddedDeque {
	if v := dequePool.Get(); v != nil {
		if d := v.([]paddedDeque); cap(d) >= workers {
			return d[:workers]
		}
	}
	return make([]paddedDeque, workers)
}

func putDeques(d []paddedDeque) { dequePool.Put(d[:cap(d)]) }

// pop removes the bottom chunk for the owning worker.
func (d *chunkDeque) pop() (int, bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, false
	}
	c := d.lo
	d.lo++
	d.mu.Unlock()
	return c, true
}

// stealHalf removes the top half (rounded up) of the victim's remaining
// chunks and returns the stolen index range.
func (d *chunkDeque) stealHalf() (lo, hi int, ok bool) {
	d.mu.Lock()
	rem := d.hi - d.lo
	if rem <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	take := (rem + 1) / 2
	lo, hi = d.hi-take, d.hi
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// refill publishes a stolen chunk range as the (empty) deque's new content.
func (d *chunkDeque) refill(lo, hi int) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// region executes fn once per chunk of [0, n) on `workers` goroutines with
// dense worker ids. Chunk c covers [c*chunk, min((c+1)*chunk, n)). Deques
// are seeded with contiguous chunk spans split as evenly as possible; when
// steal is set, a worker that drains its own deque takes half of a victim's
// remaining span and continues, which is invisible to callers beyond which
// worker runs which chunk. Work is never orphaned: chunks live in exactly
// one deque until popped, a thief immediately republishes what it stole
// into its own (empty) deque, and a worker only exits with an empty deque
// after a full scan finds every other deque empty — any chunks that appear
// after that scan belong to a still-live worker that drains its own deque
// before exiting.
//
// Deque seeding doubles as the NUMA placement policy: worker w's seeded span
// is the same contiguous range of chunks every time a region of the same
// shape runs, so across the repeated passes of a training loop each worker
// keeps touching the same slice of the sample arrays and first-touch pages
// stay local. Stealing only migrates span tails, and only when the load is
// actually imbalanced.
func region(n, chunk, workers int, steal bool, fn func(worker, lo, hi int)) {
	nch := (n + chunk - 1) / chunk
	statRegions.Add(1)
	statChunks.Add(uint64(nch))
	if workers > nch {
		workers = nch
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(0, lo, min(lo+chunk, n))
		}
		return
	}
	deques := getDeques(workers)
	per, extra := nch/workers, nch%workers
	start := 0
	for w := 0; w < workers; w++ {
		cnt := per
		if w < extra {
			cnt++
		}
		deques[w].lo, deques[w].hi = start, start+cnt
		start += cnt
	}
	body := func(w int) {
		self := &deques[w].chunkDeque
		for {
			if c, ok := self.pop(); ok {
				fn(w, c*chunk, min((c+1)*chunk, n))
				continue
			}
			if !steal {
				return
			}
			stolen := false
			for i := 1; i < workers; i++ {
				if lo, hi, ok := deques[(w+i)%workers].stealHalf(); ok {
					self.refill(lo, hi)
					statSteals.Add(1)
					stolen = true
					break
				}
			}
			if !stolen {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		w := w
		dispatch(func() {
			defer wg.Done()
			body(w)
		})
	}
	body(workers - 1)
	wg.Wait()
	putDeques(deques)
}

// forBlocks splits [0,n) into `workers` contiguous blocks, one fn call per
// worker — the static split used by the elementwise loops.
func forBlocks(n, workers int, fn func(worker, lo, hi int)) {
	region(n, (n+workers-1)/workers, workers, false, fn)
}

// For runs fn over [0,n) split into contiguous blocks, one block per worker.
// fn must be safe to run concurrently on disjoint index ranges. For small n
// the loop runs inline on the calling goroutine.
func For(n int, fn func(start, end int)) {
	ForGrain(n, 1, fn)
}

// ForGrain is For with a caller-chosen grain, for kernels whose per-item cost
// is far from the elementwise default (e.g. a row of a wide matmul). The
// elementwise loops keep the static split: their per-item cost is uniform by
// construction, so stealing could only add deque traffic.
func ForGrain(n, itemCost int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if itemCost < 1 {
		itemCost = 1
	}
	// Work too small to split never reads the bound, which takes a lock.
	workers := n * itemCost / grain
	if workers > 1 {
		workers = min(workers, workerBound())
	}
	if workers <= 1 {
		statRegions.Add(1)
		statChunks.Add(1)
		fn(0, n)
		return
	}
	forBlocks(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// RunChunk is the region API: it executes fn(worker, lo, hi) over [0,n) on
// the persistent pool with a single fork/join for the whole region, and no
// grain heuristic — callers use it for regions whose per-item work is
// substantial (e.g. streaming a whole compiled circuit program over a sample
// range). It carries a hard guarantee the sharded engine's determinism is
// built on: fn is invoked exactly once per chunk, every chunk starts at a
// multiple of `chunk`, and the partition depends only on (n, chunk) — never
// on the worker bound. lo/chunk therefore indexes a stable per-chunk
// accumulator slot. Worker indices are dense and unique per concurrent
// goroutine. The chunk size is also the unit of stealing, so callers pick it
// to match their cache-blocked inner loops.
func RunChunk(n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	region(n, chunk, workerBound(), true, fn)
}
