// Command qpinn-bench regenerates individual tables and figures from the
// paper's evaluation. Run with -list to see every registered experiment.
// -exp table2 is the Table 2 simulator comparison: the batched adjoint
// simulator (the TorQ analogue) against the naive per-sample and
// full-unitary baselines, with the batched rows on the -engine chosen.
//
// Usage:
//
//	qpinn-bench -exp table1
//	qpinn-bench -exp table2 -engine dist -dist-workers 2
//	qpinn-bench -exp fig10 -preset smoke -seeds 2 -epochs 300
//	qpinn-bench -exp fig5 -figdir out/figs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/qsim"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment name (see -list)")
		list     = flag.Bool("list", false, "list experiments and exit")
		preset   = flag.String("preset", "smoke", experiments.PresetNames())
		seeds    = flag.Int("seeds", 0, "replicate count (0 = preset default)")
		epochs   = flag.Int("epochs", 0, "training epochs (0 = preset default)")
		figdir   = flag.String("figdir", "", "directory for PGM/CSV artifacts")
		ansatz   = flag.String("ansatz", "", "restrict sweep to comma-separated ansätze ("+qsim.AnsatzNames()+")")
		scale    = flag.String("scale", "", "restrict sweep to comma-separated scalings ("+qsim.ScalingNames()+")")
		engine   = flag.String("engine", "sharded", "circuit-execution engine: "+qsim.EngineNames())
		workers  = flag.Int("dist-workers", 0, fmt.Sprintf("local subprocess worker count for -engine dist, at most %d (0 = TORQ_DIST_WORKERS or 2)", dist.MaxWorkers))
		obsFlags = obs.RegisterFlags("qpinn-bench")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("Registered experiments:")
		for _, r := range experiments.Registry {
			fmt.Printf("  %-8s %s\n", r.Name, r.Doc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	r, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	eng, err := qsim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pre, err := experiments.ParsePreset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *seeds < 0 || *epochs < 0 {
		fmt.Fprintf(os.Stderr, "qpinn-bench: negative count (-seeds %d, -epochs %d); 0 means the preset default\n", *seeds, *epochs)
		os.Exit(2)
	}
	if *workers < 0 || *workers > dist.MaxWorkers {
		fmt.Fprintf(os.Stderr, "qpinn-bench: -dist-workers %d outside [0, %d]; 0 means TORQ_DIST_WORKERS or 2\n", *workers, dist.MaxWorkers)
		os.Exit(2)
	}
	o := experiments.Options{
		Preset: pre,
		Seeds:  *seeds,
		Epochs: *epochs,
		Engine: eng,
		Out:    os.Stdout,
		FigDir: *figdir,
	}
	for _, name := range splitList(*ansatz) {
		a, err := qsim.ParseAnsatz(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		o.Ansatze = append(o.Ansatze, a)
	}
	for _, name := range splitList(*scale) {
		sc, err := qsim.ParseScaling(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		o.Scalings = append(o.Scalings, sc)
	}

	if *workers > 0 {
		dist.Configure(dist.Options{Workers: *workers})
		defer dist.Shutdown()
	}
	if eng == qsim.EngineDist {
		if _, err := dist.PoolSize(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	stopObs, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopObs()

	start := time.Now()
	if err := r.Run(o); err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %s, preset=%s]\n", r.Name, time.Since(start).Round(time.Millisecond), *preset)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
