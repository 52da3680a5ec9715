package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsSampledWhileStealing is the ftdc consumer contract run under
// -race: one goroutine samples Stats() on a tight loop (as the recorder
// does) while stealing regions execute with a stalled owner forcing real
// steals. Snapshots must be monotonic — the counters only ever increase —
// and the final quiesced snapshot must account for every chunk.
func TestStatsSampledWhileStealing(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(4)
	ResetStats()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the recorder
		defer wg.Done()
		var last SchedStats
		for {
			s := Stats()
			if s.Regions < last.Regions || s.Chunks < last.Chunks || s.Steals < last.Steals {
				t.Errorf("counters went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const regions, chunksPer = 40, 16
	var executed atomic.Int64
	for r := 0; r < regions; r++ {
		RunChunk(chunksPer, 1, func(_, lo, _ int) {
			executed.Add(1)
			if lo == 0 {
				time.Sleep(2 * time.Millisecond) // stall the owner: the rest must steal
			}
		})
	}
	close(stop)
	wg.Wait()

	if got := executed.Load(); got != regions*chunksPer {
		t.Fatalf("executed %d chunks, want %d", got, regions*chunksPer)
	}
	s := Stats()
	if s.Regions < regions || s.Chunks < regions*chunksPer {
		t.Fatalf("quiesced stats undercount: %+v", s)
	}
	if s.Steals == 0 {
		t.Fatalf("stalled-owner regions recorded no steals: %+v", s)
	}
}
