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

// TestDealOwnersOrphansAndRounds pins the dealing rule: shard s goes to its
// owner slot s mod P when that slot is live; the shards of slots with no
// live worker go round-robin over the live slots in ascending shard order,
// as does a dead worker's share in the next round; no live slot deals
// nothing.
func TestDealOwnersOrphansAndRounds(t *testing.T) {
	cases := []struct {
		name   string
		shards []int
		live   []bool
		want   string
	}{
		{"one worker", []int{0, 1, 2}, []bool{true}, "[[0 1 2]]"},
		{"owners", []int{0, 1, 2, 3, 4, 5, 6}, []bool{true, true, true}, "[[0 3 6] [1 4] [2 5]]"},
		{"fewer shards than slots", []int{0, 1}, []bool{true, true, true, true}, "[[0] [1] [] []]"},
		// Slot 1 has no live worker: its shards 1, 4, 7 are orphans.
		{"orphans", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []bool{true, false, true},
			"[[0 1 3 6 7 9] [] [2 4 5 8]]"},
		{"orphans of four slots", []int{0, 1, 2, 3, 4, 5, 6, 7}, []bool{true, false, true, true},
			"[[0 1 4] [] [2 5 6] [3 7]]"},
		// The worker in slot 0 of the case above died with its shards.
		{"second round", []int{0, 1, 4}, []bool{false, false, true, true}, "[[] [] [0 4] [1]]"},
		{"no live slot", []int{0, 1}, []bool{false, false}, "[]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(deal(c.shards, c.live)); got != c.want {
			t.Errorf("%s: deal(%v, %v) = %s, want %s", c.name, c.shards, c.live, got, c.want)
		}
	}
}
