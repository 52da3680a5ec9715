// Command torq-bench runs the Table 2 simulator comparison: the batched
// adjoint simulator (the TorQ analogue) against the naive per-sample and
// full-unitary baselines that stand in for PennyLane's default.qubit and
// operator-composition pipelines. The -engine flag selects the execution
// engine for the batched rows: sharded (the default), dist, or naive.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/qsim"
)

func main() {
	preset := flag.String("preset", "smoke", experiments.PresetNames())
	engine := flag.String("engine", "sharded", "circuit-execution engine for the batched simulator ("+qsim.EngineNames()+"): sharded runs the compiled program in process as work-stealing sample shards with worker-count-independent gradients, dist ships the same shards to worker processes, naive is the dense per-sample reference")
	distWorkers := flag.Int("dist-workers", 0, "subprocess worker count for -engine dist (0 = TORQ_DIST_WORKERS or 2); remote workers come from TORQ_DIST_ADDRS")
	obsFlags := obs.RegisterFlags("torq-bench")
	flag.Parse()
	pre, err := experiments.ParsePreset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o := experiments.Options{Preset: pre, Out: os.Stdout}
	eng, err := qsim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o.Engine = eng
	if *distWorkers > 0 {
		dist.Configure(dist.Options{Workers: *distWorkers})
		defer dist.Shutdown()
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopObs()
	if err := experiments.Table2(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
