package dist

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Transport telemetry. The coordinator holds its own mutex for the entire
// duration of a pass, so the ftdc recorder can never sample through
// coordinator state — every counter here lives outside it, updated with
// plain atomics at the instrumentation points (one add per exchange or per
// pass, never per amplitude) and snapshotted lock-free by Collect. The
// torq-lint nolocktelemetry analyzer holds the sampling surface to that
// claim: observeBatch, Collect, and ResetTelemetry are //torq:nolock, so
// anything needing a lock, a map, or an allocation (series-name formatting
// included) must happen at worker registration instead.
// Only ftdc.Summarize reads the series names back; the debug plane and
// torq-ftdc render from its summary.

// LatencyBuckets is the size of the log2 per-shard latency histogram: bucket
// k counts shards whose per-shard latency fell in [2^(k-1), 2^k)
// microseconds (bucket 0: under 1µs). The top bucket is open: it counts
// every shard at or above 2^26 µs ≈ 67s, past the fixed 60 s shard timeout.
const LatencyBuckets = 28

var xstats struct {
	passes, fwdPasses, bwdPasses atomic.Int64
	shardsDone, batches          atomic.Int64
	redispatched                 atomic.Int64
	affRouted, affMissed         atomic.Int64
	bytesOut, bytesIn            atomic.Int64
	handshakes, workerKills      atomic.Int64
	lat                          [LatencyBuckets]atomic.Int64
	latSumNS                     atomic.Int64 // total per-shard latency, the histogram's exact sum
}

// latNames precomputes the histogram series names so Collect never formats.
var latNames = func() (a [LatencyBuckets]string) {
	for b := range a {
		a[b] = fmt.Sprintf("dist.lat_b%02d", b)
	}
	return
}()

// workerStats accumulates one worker's per-shard service telemetry. An
// exchange's round-trip latency is attributed evenly across its shards, so
// a slow worker's mean shard latency stands out to the straggler check.
// Series names are baked in at registration, the one place allowed to
// allocate.
type workerStats struct {
	shards  atomic.Int64
	latNS   atomic.Int64
	batches atomic.Int64
	alive   atomic.Int64 // 1 from registration until the transport is torn down

	nameShards, nameLatNS, nameBatches, nameAlive string
}

// maxWorkerSlots bounds the per-worker slot array. Worker ids are monotonic
// and never reused, so the index doubles as a spawn counter; a run that
// churns through more than this many workers keeps exact aggregate counters
// and just stops opening new per-worker series.
const maxWorkerSlots = 512

var wslots struct {
	slots [maxWorkerSlots]atomic.Pointer[workerStats]
	maxID atomic.Int64
}

// registerWorkerStats opens the per-worker telemetry slot for a newly
// spawned worker. It runs on the coordinator's spawn path, where
// allocating and formatting are fine; the sampling functions below only
// ever load what is published here.
func registerWorkerStats(id int) {
	if id <= 0 || id >= maxWorkerSlots || wslots.slots[id].Load() != nil {
		return
	}
	ws := &workerStats{
		nameShards:  fmt.Sprintf("dist.w%d.shards", id),
		nameLatNS:   fmt.Sprintf("dist.w%d.lat_ns", id),
		nameBatches: fmt.Sprintf("dist.w%d.batches", id),
		nameAlive:   fmt.Sprintf("dist.w%d.alive", id),
	}
	ws.alive.Store(1)
	wslots.slots[id].CompareAndSwap(nil, ws)
	for {
		cur := wslots.maxID.Load()
		if int64(id) <= cur || wslots.maxID.CompareAndSwap(cur, int64(id)) {
			return
		}
	}
}

// observeBatch records one answered exchange: n shards in latNS nanoseconds
// of round-trip time, served by worker id.
//
//torq:nolock
func observeBatch(id, n int, latNS int64) {
	if n <= 0 {
		return
	}
	xstats.shardsDone.Add(int64(n))
	xstats.batches.Add(1)
	perShard := latNS / int64(n)
	b := bits.Len64(uint64(perShard / 1000)) // log2 bucket in µs
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	xstats.lat[b].Add(int64(n))
	xstats.latSumNS.Add(latNS)
	if id <= 0 || id >= maxWorkerSlots {
		return
	}
	if ws := wslots.slots[id].Load(); ws != nil {
		ws.shards.Add(int64(n))
		ws.latNS.Add(latNS)
		ws.batches.Add(1)
	}
}

// markWorkerDead flags a worker's telemetry slot when the coordinator tears
// its transport down. Worker ids are never reused, so a respawned worker
// opens a fresh, live slot.
//
//torq:nolock
func markWorkerDead(id int) {
	if id <= 0 || id >= maxWorkerSlots {
		return
	}
	if ws := wslots.slots[id].Load(); ws != nil {
		ws.alive.Store(0)
	}
}

// Collect emits the transport counters in the flat name → int64 form the
// ftdc recorder samples. Per-worker series are named dist.w<id>.*; worker
// ids are never reused, so a respawned worker starts fresh series (the
// recorder's schema-on-change encoding absorbs the set change). Slots are
// walked in id order, so emission order is deterministic.
//
//torq:nolock
func Collect(emit func(name string, value int64)) {
	emit("dist.passes", xstats.passes.Load())
	emit("dist.fwd_passes", xstats.fwdPasses.Load())
	emit("dist.bwd_passes", xstats.bwdPasses.Load())
	emit("dist.shards_done", xstats.shardsDone.Load())
	emit("dist.batches", xstats.batches.Load())
	emit("dist.redispatched", xstats.redispatched.Load())
	emit("dist.aff_routed", xstats.affRouted.Load())
	emit("dist.aff_missed", xstats.affMissed.Load())
	emit("dist.bytes_out", xstats.bytesOut.Load())
	emit("dist.bytes_in", xstats.bytesIn.Load())
	emit("dist.handshakes", xstats.handshakes.Load())
	emit("dist.worker_kills", xstats.workerKills.Load())
	emit("dist.lat_sum_ns", xstats.latSumNS.Load())
	for b := 0; b < LatencyBuckets; b++ {
		emit(latNames[b], xstats.lat[b].Load())
	}
	max := wslots.maxID.Load()
	for id := int64(1); id <= max && id < maxWorkerSlots; id++ {
		ws := wslots.slots[id].Load()
		if ws == nil {
			continue
		}
		emit(ws.nameShards, ws.shards.Load())
		emit(ws.nameLatNS, ws.latNS.Load())
		emit(ws.nameBatches, ws.batches.Load())
		emit(ws.nameAlive, ws.alive.Load())
	}
}

// ResetTelemetry zeroes every transport counter and drops the per-worker
// series (tests and A/B runs).
//
//torq:nolock
func ResetTelemetry() {
	xstats.passes.Store(0)
	xstats.fwdPasses.Store(0)
	xstats.bwdPasses.Store(0)
	xstats.shardsDone.Store(0)
	xstats.batches.Store(0)
	xstats.redispatched.Store(0)
	xstats.affRouted.Store(0)
	xstats.affMissed.Store(0)
	xstats.bytesOut.Store(0)
	xstats.bytesIn.Store(0)
	xstats.handshakes.Store(0)
	xstats.workerKills.Store(0)
	xstats.latSumNS.Store(0)
	for b := range xstats.lat {
		xstats.lat[b].Store(0)
	}
	max := wslots.maxID.Load()
	for id := int64(1); id <= max && id < maxWorkerSlots; id++ {
		wslots.slots[id].Store(nil)
	}
	wslots.maxID.Store(0)
}
