// Command qpinn-ablate runs the full ablation sweeps of Figs. 6–9: every
// ansatz × input-scaling × {with, without energy-conservation loss}
// combination, plus the three classical depths, for one of the paper's
// cases.
//
// Usage:
//
//	qpinn-ablate -case vacuum
//	qpinn-ablate -case dielectric -aggregate
//	qpinn-ablate -case vacuum -preset paper -seeds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/qsim"
)

func main() {
	var (
		caseName  = flag.String("case", "vacuum", "vacuum | dielectric")
		aggregate = flag.Bool("aggregate", false, "print Fig 7/9 aggregates instead of the full table")
		preset    = flag.String("preset", "smoke", "smoke | paper")
		seeds     = flag.Int("seeds", 0, "replicate count (0 = preset default)")
		epochs    = flag.Int("epochs", 0, "training epochs (0 = preset default)")
		engine    = flag.String("engine", "sharded", "circuit-execution engine: "+qsim.EngineNames())
	)
	flag.Parse()

	eng, err := qsim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o := experiments.Options{Preset: experiments.Smoke, Seeds: *seeds, Epochs: *epochs, Engine: eng, Out: os.Stdout}
	if *preset == "paper" {
		o.Preset = experiments.Paper
	}

	var name string
	switch {
	case *caseName == "vacuum" && !*aggregate:
		name = "fig6"
	case *caseName == "vacuum":
		name = "fig7"
	case *caseName == "dielectric" && !*aggregate:
		name = "fig8"
	case *caseName == "dielectric":
		name = "fig9"
	default:
		fmt.Fprintln(os.Stderr, "unknown case (vacuum | dielectric)")
		os.Exit(2)
	}
	r, _ := experiments.Lookup(name)
	start := time.Now()
	if err := r.Run(o); err != nil {
		fmt.Fprintf(os.Stderr, "ablation failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
}
