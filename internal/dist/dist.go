// Package dist is the multi-process shard executor behind qsim's EngineDist:
// a coordinator that partitions each circuit pass into the same fixed
// cache-block sample shards as the in-process sharded engine, ships them to
// worker processes as length-prefixed binary frames, and merges (z rows,
// gradient partials) in shard order — so results are bit-identical to
// EngineSharded for any worker count.
//
// A session opens with one handshake carrying the ansatz circuit and the
// compiled program's digest (workers recompile deterministically and must
// agree); each pass then broadcasts the coefficient vector once and streams
// shard assignments. Shard s has one owner worker, slot s mod the pool
// size, for both halves of a training step: the owner keeps the states its
// forward left and runs the backward on them. Every shard frame still
// carries the shard's inputs, so a dead worker's shards re-dispatch to the
// survivors, which recompute those states, and the pass finishes.
//
// Workers are local subprocesses that re-execute the coordinator's own
// binary and speak frames over stdio: this package's init intercepts
// TORQ_DIST_WORKER=stdio before main runs, so every worker runs the
// coordinator's build on the coordinator's host, and the frame format is
// private to that build: it carries no version. The pool size
// (Options.Workers, else TORQ_DIST_WORKERS, else 2; at most MaxWorkers) is
// the one setting.
//
// Importing the package registers the coordinator as qsim's dist backend;
// nothing starts until the first EngineDist pass runs.
//
// # Invariants
//
// Shard results are a pure function of (program, theta, shard inputs):
// which worker computes a shard, in what order, after how many deaths and
// re-dispatches, never changes the merged result — the coordinator merges
// per-shard partials in ascending shard order, bit-identical to the
// in-process sharded engine. Each session is digest-checked at the
// handshake, every frame is bounds-checked as it decodes, and the kept
// forward states are a fast path only: a worker runs a backward
// shard on them only when its inputs match the forward's bit for bit, and
// recomputes them otherwise.
package dist

import (
	"fmt"
	"os"

	"repro/internal/qsim"
)

// workerModeEnv turns any binary that links this package into a worker: when
// set to "stdio" the process serves the worker protocol on stdin/stdout from
// init and never reaches main. This is how the coordinator self-execs a
// worker pool out of binaries (including test binaries) that have no worker
// entry point of their own.
const workerModeEnv = "TORQ_DIST_WORKER"

func init() {
	if os.Getenv(workerModeEnv) == "stdio" {
		if err := ServeConn(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	qsim.RegisterDistBackend(backend{})
}
