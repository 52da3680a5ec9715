package dist

// Test hooks shared with the external dist_test package.

// SetTestSpawnEnv arms the NEXT spawned subprocess worker with extra
// environment variables (consumed by the first spawn). The recovery tests
// use it with FailAfterEnv to make exactly one worker die deterministically
// mid-pass.
func SetTestSpawnEnv(env ...string) {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	coord.spawnEnv = env
}

// FailAfterEnv is the worker-side chaos hook environment variable.
const FailAfterEnv = failAfterEnv

// RequireCachedEnv makes workers refuse backward recomputes; a pass that
// succeeds under it proves every backward shard ran on the states its
// forward kept.
const RequireCachedEnv = requireCachedEnv

// StallEnv makes a worker sleep the given number of milliseconds per shard —
// a deterministic straggler for the telemetry tests.
const StallEnv = stallEnv

// KillOneWorkerForTest kills the first live worker's process/connection,
// simulating an external crash between (or during) passes. It reports
// whether a live worker was found.
func KillOneWorkerForTest() bool {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	for _, w := range coord.workers {
		if !w.dead.Load() {
			w.kill()
			return true
		}
	}
	return false
}

// LiveWorkersForTest counts workers that have not been declared dead.
func LiveWorkersForTest() int {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	n := 0
	for _, w := range coord.workers {
		if !w.dead.Load() {
			n++
		}
	}
	return n
}

// WorkerPIDsForTest lists the process ids of the pool's workers, dead ones
// included.
func WorkerPIDsForTest() []int {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	var pids []int
	for _, w := range coord.workers {
		pids = append(pids, w.cmd.Process.Pid)
	}
	return pids
}
