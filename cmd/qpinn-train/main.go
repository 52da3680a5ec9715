// Command qpinn-train trains a single PINN/QPINN configuration and reports
// the training history, the final L2 error against the high-fidelity
// reference, and the black-hole index.
//
// Usage:
//
//	qpinn-train -case vacuum -arch qpinn -ansatz strongly -scale acos -energy
//	qpinn-train -case dielectric -arch regular -epochs 500
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/maxwell"
	"repro/internal/obs"
	"repro/internal/qsim"
)

// caseFlags and archFlags hold each -case and -arch value, indexed by kind:
// parsing, its error text and the flag help all read them.
var (
	caseFlags = [...]string{maxwell.VacuumCase: "vacuum", maxwell.DielectricCase: "dielectric", maxwell.AsymmetricCase: "asymmetric"}
	archFlags = [...]string{core.ClassicalRegular: "regular", core.ClassicalReduced: "reduced", core.ClassicalExtra: "extra", core.QPINN: "qpinn"}
)

// parseName returns the index of s in names; the error names s and every
// valid value.
func parseName(what, s string, names []string) (int, error) {
	if i := slices.Index(names, s); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("qpinn-train: unknown %s %q (want %s)", what, s, strings.Join(names, "|"))
}

func main() {
	var (
		caseName   = flag.String("case", "vacuum", strings.Join(caseFlags[:], "|"))
		archName   = flag.String("arch", "qpinn", strings.Join(archFlags[:], "|"))
		ansatz     = flag.String("ansatz", "strongly", qsim.AnsatzNames())
		scale      = flag.String("scale", "acos", qsim.ScalingNames())
		engine     = flag.String("engine", "sharded", "circuit-execution engine: "+qsim.EngineNames())
		energy     = flag.Bool("energy", true, "include the energy-conservation loss")
		symmetry   = flag.Bool("symmetry", true, "include the symmetry loss (ignored for the asymmetric case)")
		epochs     = flag.Int("epochs", 300, "training epochs")
		grid       = flag.Int("grid", 10, "collocation points per coordinate")
		hidden     = flag.Int("hidden", 24, "hidden width (paper: 128)")
		rff        = flag.Int("rff", 12, "random Fourier features (paper: 128)")
		qubits     = flag.Int("qubits", 4, "qubits (paper: 7)")
		qlayers    = flag.Int("qlayers", 2, "ansatz layers (paper: 4)")
		seed       = flag.Int64("seed", 1, "random seed")
		logEvery   = flag.Int("log", 0, "epochs between log lines (0 = 10 lines total)")
		paperPulse = flag.Bool("paperpulse", false, "use the paper's narrow pulse instead of the smoke-scale widened one")
		savePath   = flag.String("save", "", "write a model checkpoint here after training")
		loadPath   = flag.String("load", "", "warm-start from a checkpoint (overrides architecture flags)")
		obsFlags   = obs.RegisterFlags("qpinn-train")
	)
	flag.Parse()

	stopObs, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopObs()

	ci, err := parseName("case", *caseName, caseFlags[:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c := maxwell.Case(ci)
	p := maxwell.NewSmokeProblem(c)
	if *paperPulse {
		p = maxwell.NewProblem(c)
	}

	ai, err := parseName("arch", *archName, archFlags[:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	arch := core.Arch(ai)
	eng, err := qsim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if eng == qsim.EngineDist {
		if _, err := dist.PoolSize(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	ans, err := qsim.ParseAnsatz(*ansatz)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc, err := qsim.ParseScaling(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mcfg := core.ModelConfig{
		Arch: arch, Hidden: *hidden, RFFFeatures: *rff, RFFSigma: 1,
		NumQubits: *qubits, QLayers: *qlayers,
		Ansatz: ans, Scaling: sc,
		Init: qsim.InitRegular, TimePeriod: 4, Seed: *seed,
		Engine: eng,
	}
	useSym := *symmetry && c != maxwell.AsymmetricCase
	tcfg := core.SmokeTrain(*epochs, maxwell.PaperConfig(*energy, useSym))
	tcfg.Grid = *grid
	tcfg.QuantumDiagnostics = arch == core.QPINN
	if err := tcfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var model *core.Model
	if *loadPath != "" {
		model, err = core.LoadFile(*loadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("warm start from %s (%v)\n", *loadPath, model.Cfg.Arch)
	} else {
		if err := mcfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		model = core.NewModel(mcfg)
	}
	cl, qu, tot := model.ParamCounts()
	fmt.Printf("case=%s arch=%v ansatz=%v scale=%v energy=%v\n", c, arch, mcfg.Ansatz, mcfg.Scaling, *energy)
	fmt.Printf("parameters: %d classical + %d quantum = %d total\n", cl, qu, tot)

	ref := core.NewReference(p, 16, []float64{0, p.TMax / 3, 2 * p.TMax / 3, p.TMax}, 64)
	every := *logEvery
	if every <= 0 {
		every = (*epochs + 9) / 10
	}

	start := time.Now()
	res := core.TrainModel(model, p, tcfg, ref)
	elapsed := time.Since(start)

	for i, h := range res.History {
		if i%every == 0 || i == len(res.History)-1 {
			l2 := "—"
			if !math.IsNaN(h.L2) {
				l2 = fmt.Sprintf("%.4f", h.L2)
			}
			fmt.Printf("epoch %5d  loss %10.3e  phys %9.3e  ic %9.3e  |grad| %9.3e  L2 %s\n",
				h.Epoch, h.Total, h.Phys, h.IC, h.GradNorm, l2)
		}
	}
	fmt.Printf("\ntrained %d epochs in %s (%.1f ms/epoch)\n", *epochs, elapsed.Round(time.Millisecond),
		elapsed.Seconds()*1000/float64(*epochs))
	fmt.Printf("final L2 error (eq. 32): %.5f\n", res.FinalL2)
	fmt.Printf("black-hole index I_BH (eq. 35): %.3f  collapsed=%v\n", res.FinalIBH, res.Collapsed)
	if *savePath != "" {
		if err := model.SaveFile(*savePath); err != nil {
			fmt.Fprintf(os.Stderr, "save checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
}
