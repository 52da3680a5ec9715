// Command maxwell-ref generates high-fidelity reference solutions of the
// 2-D TEz Maxwell problems: the exact spectral solution (vacuum), the
// 4th-order Padé compact scheme (any medium) and the Yee FDTD cross-check.
// Snapshots are written as PGM images and a CSV of total energy vs time.
//
// Usage:
//
//	maxwell-ref -case vacuum -grid 128 -times 0,0.5,1.0,1.5 -out refs/
//	maxwell-ref -case dielectric -solver pade -grid 96
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/maxwell"
	"repro/internal/refsol"
	"repro/internal/report"
)

func main() {
	var (
		caseName = flag.String("case", "vacuum", "vacuum | dielectric | asymmetric")
		solver   = flag.String("solver", "", "spectral | pade | fdtd (default: case-appropriate)")
		grid     = flag.Int("grid", 128, "grid resolution per axis")
		timesArg = flag.String("times", "", "comma-separated snapshot times (default: case-appropriate)")
		out      = flag.String("out", "refs", "output directory")
	)
	flag.Parse()

	var c maxwell.Case
	switch *caseName {
	case "vacuum":
		c = maxwell.VacuumCase
	case "dielectric":
		c = maxwell.DielectricCase
	case "asymmetric":
		c = maxwell.AsymmetricCase
	default:
		fmt.Fprintln(os.Stderr, "unknown case")
		os.Exit(2)
	}
	p := maxwell.NewProblem(c)

	times := []float64{0, p.TMax / 3, 2 * p.TMax / 3, p.TMax}
	if *timesArg != "" {
		times = times[:0]
		for _, s := range strings.Split(*timesArg, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad time %q: %v\n", s, err)
				os.Exit(2)
			}
			times = append(times, v)
		}
	}

	sol := *solver
	if sol == "" {
		if c == maxwell.DielectricCase {
			sol = "pade"
		} else {
			sol = "spectral"
		}
	}
	// Refuse what the solvers cannot run before any of them starts: on a
	// grid of fewer than 3 points a point's left and right neighbours
	// coincide (0 or less panics or never ends), and the spectral solver's
	// FFT needs a power of two.
	switch {
	case sol != "spectral" && sol != "pade" && sol != "fdtd":
		fmt.Fprintf(os.Stderr, "unknown solver %q (want spectral | pade | fdtd)\n", sol)
		os.Exit(2)
	case sol == "spectral" && c == maxwell.DielectricCase:
		fmt.Fprintln(os.Stderr, "spectral solver is vacuum-only")
		os.Exit(2)
	case *grid < 3:
		fmt.Fprintf(os.Stderr, "-grid %d: want at least 3 points per axis\n", *grid)
		os.Exit(2)
	case sol == "spectral" && *grid&(*grid-1) != 0:
		fmt.Fprintf(os.Stderr, "-grid %d: the spectral solver needs a power of two\n", *grid)
		os.Exit(2)
	}

	init := p.Pulse.InitFields(*grid)
	var snaps []*refsol.Fields
	switch sol {
	case "spectral":
		snaps = refsol.NewSpectral(init).Series(times)
	case "pade":
		med := p.Medium
		if c == maxwell.DielectricCase {
			med = refsol.SmoothSlab(2 * refsol.L / float64(*grid))
		}
		snaps = refsol.NewPade(*grid, med).Solve(init, times)
	case "fdtd":
		med := p.Medium
		if c == maxwell.DielectricCase {
			med = refsol.SmoothSlab(2 * refsol.L / float64(*grid))
		}
		snaps = refsol.NewFDTD(*grid, med).Solve(init, times)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	energies := make([]float64, len(times))
	for i, f := range snaps {
		energies[i] = refsol.TotalEnergy(f, p.Medium)
		name := filepath.Join(*out, fmt.Sprintf("%s_%s_ez_t%.3f.pgm", *caseName, sol, times[i]))
		fh, err := os.Create(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report.PGM(fh, f.Ez, *grid, 0)
		fh.Close()
		fmt.Printf("wrote %s (energy %.6f)\n", name, energies[i])
	}
	csvName := filepath.Join(*out, fmt.Sprintf("%s_%s_energy.csv", *caseName, sol))
	fh, err := os.Create(csvName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report.CSV(fh, []string{"t", "total_energy"}, times, energies)
	fh.Close()
	fmt.Printf("wrote %s\n", csvName)
}
