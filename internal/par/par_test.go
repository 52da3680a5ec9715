package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestForCoversRangeExactlyOnce: every index is visited exactly once, for
// sizes spanning the serial and parallel regimes.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, grain - 1, grain, grain + 1, 10 * grain} {
		visits := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestForGrainProperty: arbitrary sizes and item costs still partition the
// range exactly.
func TestForGrainProperty(t *testing.T) {
	f := func(rawN uint16, rawCost uint8) bool {
		n := int(rawN) % 5000
		var total int64
		ForGrain(n, int(rawCost), func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBlocksAreContiguousAndOrderedWithinBlock: callers rely on [lo, hi)
// semantics for race-free writes to disjoint slices.
func TestBlocksAreContiguousAndOrderedWithinBlock(t *testing.T) {
	n := 4 * grain
	out := make([]int, n)
	For(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad block [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	})
	for i, v := range out {
		if v != i {
			t.Fatalf("index %d got %d", i, v)
		}
	}
}

// TestRunCoversRangeWithDenseWorkerIDs: RunChunk partitions [0,n) exactly
// and hands out worker indices usable as per-worker accumulator slots. A
// worker may receive several contiguous chunks within one region.
func TestRunCoversRangeWithDenseWorkerIDs(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100, 100000} {
		visits := make([]int32, n)
		partials := make([]int64, MaxWorkers())
		RunChunk(n, n/16+1, func(worker, lo, hi int) {
			if worker < 0 || worker >= MaxWorkers() {
				t.Errorf("worker %d out of range [0, %d)", worker, MaxWorkers())
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
			partials[worker] += int64(hi - lo)
		})
		var total int64
		for _, p := range partials {
			total += p
		}
		if total != int64(n) {
			t.Fatalf("n=%d: per-worker partials sum to %d", n, total)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestRunChunkPartitionStable pins the contract the sharded engine's
// determinism rests on: RunChunk invokes fn exactly once per chunk, chunk
// boundaries depend only on (n, chunk), and the partition is identical for
// every worker bound.
func TestRunChunkPartitionStable(t *testing.T) {
	defer SetMaxWorkers(0)
	cases := []struct{ n, chunk int }{{1, 1}, {7, 3}, {64, 8}, {100, 7}, {512, 5}}
	for _, c := range cases {
		want := map[int]int{} // lo → hi from the serial run
		SetMaxWorkers(1)
		RunChunk(c.n, c.chunk, func(_, lo, hi int) {
			if lo%c.chunk != 0 {
				t.Errorf("n=%d chunk=%d: lo %d not a chunk multiple", c.n, c.chunk, lo)
			}
			want[lo] = hi
		})
		for _, workers := range []int{3, 8} {
			SetMaxWorkers(workers)
			var mu sync.Mutex
			got := map[int]int{}
			RunChunk(c.n, c.chunk, func(_, lo, hi int) {
				mu.Lock()
				if _, dup := got[lo]; dup {
					t.Errorf("n=%d chunk=%d workers=%d: chunk at %d visited twice", c.n, c.chunk, workers, lo)
				}
				got[lo] = hi
				mu.Unlock()
			})
			if len(got) != len(want) {
				t.Fatalf("n=%d chunk=%d workers=%d: %d chunks, want %d", c.n, c.chunk, workers, len(got), len(want))
			}
			//torq:allow maprange -- independent per-chunk assertions
			for lo, hi := range want {
				if got[lo] != hi {
					t.Fatalf("n=%d chunk=%d workers=%d: chunk [%d,%d) became [%d,%d)", c.n, c.chunk, workers, lo, hi, lo, got[lo])
				}
			}
		}
	}
}

// TestRunStealUnevenCosts forces a steeply skewed per-chunk workload (the
// shape noise trajectories and mixed comparators produce) through a forced
// multi-worker stealing region: coverage must stay exact while idle workers
// drain the expensive head of the range. Run under -race this exercises the
// deque pop/steal/refill interleavings.
func TestRunStealUnevenCosts(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	n := 256
	visits := make([]int32, n)
	sink := make([]float64, 8)
	RunChunk(n, 4, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
			// The first chunks carry ~1000× the work of the tail.
			work := 20
			if i < n/8 {
				work = 20000
			}
			s := 0.0
			for k := 0; k < work; k++ {
				s += float64(k ^ i)
			}
			sink[worker] += s
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestRunNested: a RunChunk region launched from inside a pool worker must
// not deadlock (submission falls back to fresh goroutines when the pool is
// busy).
func TestRunNested(t *testing.T) {
	var total int64
	RunChunk(64, 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			RunChunk(8, 1, func(_, l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if total != 64*8 {
		t.Fatalf("nested coverage %d", total)
	}
}

// TestSetMaxWorkersConcurrent hammers the worker bound from one goroutine
// while parallel regions are in flight on another — the exact interleaving
// the CI race job sees when benchmarks toggle the bound. Run under -race
// this pins that the bound is accessed atomically; the coverage invariant
// (every region still visits its whole range) must hold for every bound the
// regions observe.
func TestSetMaxWorkersConcurrent(t *testing.T) {
	defer SetMaxWorkers(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			SetMaxWorkers(i%4 + 1)
		}
	}()
	for i := 0; i < 200; i++ {
		var total int64
		RunChunk(64, 2, func(_, lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != 64 {
			t.Fatalf("iteration %d: coverage %d", i, total)
		}
		var count int64
		ForGrain(3*grain, 1, func(lo, hi int) {
			atomic.AddInt64(&count, int64(hi-lo))
		})
		if count != int64(3*grain) {
			t.Fatalf("iteration %d: grain coverage %d", i, count)
		}
	}
	<-done
}

func TestSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(1)
	if MaxWorkers() != 1 {
		t.Fatal("worker bound not applied")
	}
	// Serial mode still covers the range.
	var count int
	For(3*grain, func(lo, hi int) { count += hi - lo })
	if count != 3*grain {
		t.Fatalf("serial coverage %d", count)
	}
	SetMaxWorkers(0)
	if MaxWorkers() < 1 {
		t.Fatal("reset failed")
	}
}

// TestBoundFollowsGOMAXPROCS pins that, with no SetMaxWorkers override, a
// region's worker bound is the GOMAXPROCS current when it starts, not the
// one at start-up, so go test -cpu N parallelizes N ways. Each region's
// chunks sleep long enough that every worker runs one, and the calling
// goroutine runs the highest worker id, so the largest id a region reports
// is its bound minus one. MaxWorkers then reports the same bound.
func TestBoundFollowsGOMAXPROCS(t *testing.T) {
	SetMaxWorkers(0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{3, 1, 2} {
		runtime.GOMAXPROCS(procs)
		var top atomic.Int64
		RunChunk(32, 1, func(w, _, _ int) {
			for cur := top.Load(); int64(w) > cur && !top.CompareAndSwap(cur, int64(w)); cur = top.Load() {
			}
			time.Sleep(200 * time.Microsecond)
		})
		if got := int(top.Load()) + 1; got != procs {
			t.Errorf("GOMAXPROCS %d: the region ran %d workers", procs, got)
		}
		if got := MaxWorkers(); got != procs {
			t.Errorf("GOMAXPROCS %d: MaxWorkers reports %d", procs, got)
		}
	}
}

// TestStatsRecordsSteals pins the scheduler telemetry: a forced-parallel
// region whose first chunk stalls its owning worker must drain the other
// deques and rebalance the stalled owner's remaining chunks by stealing —
// and Stats must see it. This is the signal the ROADMAP follow-up uses to
// size shard/chunk granularity.
func TestStatsRecordsSteals(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(4)
	ResetStats()
	// 16 single-index chunks over 4 workers: worker 0 pops chunk 0 and
	// stalls with three chunks still in its deque; workers 1-3 finish their
	// own spans long before the stall clears and must steal to proceed.
	RunChunk(16, 1, func(_, lo, _ int) {
		if lo == 0 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	s := Stats()
	if s.Regions < 1 {
		t.Fatalf("no region recorded: %+v", s)
	}
	if s.Chunks < 16 {
		t.Fatalf("expected ≥16 chunks recorded, have %+v", s)
	}
	if s.Steals == 0 {
		t.Fatalf("forced-parallel region with a stalled worker recorded no steals: %+v", s)
	}
	ResetStats()
	if s := Stats(); s != (SchedStats{}) {
		t.Fatalf("ResetStats left %+v", s)
	}
}
