package dist

import (
	"fmt"
	"strings"
	"testing"
)

// TestPoolSize checks the pool-size sources without spawning anything:
// Options.Workers wins over TORQ_DIST_WORKERS, which wins over the default
// of 2, and a set value that is not an integer in [1, MaxWorkers] is an
// error naming its source.
func TestPoolSize(t *testing.T) {
	cases := []struct {
		workers int
		env     string
		want    int
		errFrom string // "" = no error
	}{
		{0, "", 2, ""},
		{0, "3", 3, ""},
		{0, "64", 64, ""},
		{5, "abc", 5, ""},
		{0, "abc", 0, workersEnv},
		{0, "0", 0, workersEnv},
		{0, "-1", 0, workersEnv},
		{0, "65", 0, workersEnv},
		{0, "2.5", 0, workersEnv},
		{-1, "", 0, "Options.Workers"},
		{65, "3", 0, "Options.Workers"},
		{100000, "", 0, "Options.Workers"},
	}
	for _, c := range cases {
		t.Setenv(workersEnv, c.env)
		n, err := (&coordinator{workerN: c.workers}).poolSize()
		switch {
		case c.errFrom == "" && (err != nil || n != c.want):
			t.Errorf("Workers %d, %s=%q: got %d, %v; want %d", c.workers, workersEnv, c.env, n, err, c.want)
		case c.errFrom != "" && (err == nil || !strings.Contains(err.Error(), c.errFrom)):
			t.Errorf("Workers %d, %s=%q: got %d, %v; want an error naming %s", c.workers, workersEnv, c.env, n, err, c.errFrom)
		}
	}
}

// TestPassSchedOwnersAndOrphans deals ten shards over three slots whose
// middle one has no live worker. Slots 0 and 2 take their own shards in
// ascending order, half of what each can still take per batch; slot 1's
// shards are orphans that a sender takes after its own; and a dead
// worker's in-flight and unsent shards join the orphans while its sender
// gets nothing more.
func TestPassSchedOwnersAndOrphans(t *testing.T) {
	s := newPassSched(10, []bool{true, false, true})
	w0, w2 := &worker{}, &worker{}
	grab := func(w *worker, slot int, want string) {
		t.Helper()
		if got := fmt.Sprint(s.grab(w, slot)); got != want {
			t.Fatalf("slot %d grabbed %s, want %s", slot, got, want)
		}
	}
	grab(w0, 0, "[0 3 6]") // own 0 3 6 9, orphans 1 4 7: 7/2 = 3
	grab(w2, 2, "[2 5 8]") // own 2 5 8, orphans: 6/2 = 3
	grab(w2, 2, "[1]")     // orphans only: 3/2 = 1
	w0.dead.Store(true)
	s.giveBack(0, []int{0, 3, 6})
	grab(w0, 0, "[]")
	grab(w2, 2, "[6 3 0]") // orphans 4 7, unsent 9, in flight 0 3 6
	grab(w2, 2, "[9]")
	grab(w2, 2, "[4]")
	grab(w2, 2, "[7]")
	s.complete(10)
	grab(w2, 2, "[]")
}
