// Package experiments maps every table and figure of the paper's evaluation
// to a runnable regenerator. Each experiment prints the same rows/series the
// paper reports (as aligned tables, CSV series and ASCII plots) at a chosen
// preset: Smoke shrinks grids, epochs and seed counts to laptop scale while
// preserving every architectural relationship; Paper restores the published
// scale (64³ collocation grid, 25 000 epochs, 5 seeds).
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// Preset selects the experiment scale.
type Preset int

const (
	Smoke Preset = iota
	Paper
)

// presetFlags holds each preset's -preset flag value, indexed by preset.
var presetFlags = [...]string{Smoke: "smoke", Paper: "paper"}

// PresetNames returns the valid -preset flag values, "|"-separated, for flag
// usage strings.
func PresetNames() string { return strings.Join(presetFlags[:], "|") }

// ParsePreset maps a -preset flag value to its Preset; the error lists
// every valid value.
func ParsePreset(s string) (Preset, error) {
	if i := slices.Index(presetFlags[:], s); i >= 0 {
		return Preset(i), nil
	}
	return 0, fmt.Errorf("experiments: unknown preset %q (want %s)", s, PresetNames())
}

// Options configures one experiment invocation.
type Options struct {
	Preset Preset
	Seeds  int // replicate count (paper: 5)
	Epochs int // training epochs override (0 = preset default)
	// Engine selects the circuit-execution engine for the batched-simulator
	// rows of Table 2 and for every trained quantum model (zero value: the
	// sharded compiled engine).
	Engine qsim.EngineKind
	Out    io.Writer
	// FigDir, when set, receives PGM/CSV artifacts for field figures.
	FigDir string
	// Ansatze / Scalings restrict the Figs. 6-9 sweep (nil = the paper's
	// full grid of 6 ansätze × 5 scalings).
	Ansatze  []qsim.AnsatzKind
	Scalings []qsim.ScalingKind
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Preset == Paper {
		return 5
	}
	return 2
}

func (o Options) epochs() int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	if o.Preset == Paper {
		return 25000
	}
	return 200
}

// model returns the architecture config at the preset scale.
func (o Options) model(arch core.Arch, a qsim.AnsatzKind, s qsim.ScalingKind, seed int64) core.ModelConfig {
	var m core.ModelConfig
	if o.Preset == Paper {
		m = core.PaperModel(arch, a, s)
	} else {
		m = core.SmokeModel(arch, a, s)
	}
	m.Seed = seed
	m.Engine = o.Engine
	return m
}

// train returns the training config at the preset scale.
func (o Options) train(loss maxwell.Config) core.TrainConfig {
	if o.Preset == Paper {
		t := core.PaperTrain(loss)
		t.Epochs = o.epochs()
		return t
	}
	return core.SmokeTrain(o.epochs(), loss)
}

// problem returns the benchmark problem at preset scale: the Paper preset
// uses the paper's narrow pulse; Smoke widens it 2× so its spectral content
// is resolvable on smoke collocation grids (see maxwell.NewSmokeProblem).
func (o Options) problem(c maxwell.Case) maxwell.Problem {
	if o.Preset == Paper {
		return maxwell.NewProblem(c)
	}
	return maxwell.NewSmokeProblem(c)
}

// reference builds the evaluation probe set for a problem at preset scale.
func (o Options) reference(p maxwell.Problem) *core.Reference {
	if o.Preset == Paper {
		// Paper: 512×512 × 1500 steps; we probe a 64² grid at 16 times,
		// which already dominates run time at paper scale.
		return core.NewReference(p, 64, linspace(0, p.TMax, 16), 256)
	}
	return core.NewReference(p, 12, linspace(0, p.TMax, 5), 64)
}

// Runner is one registered experiment.
type Runner struct {
	Name string
	Doc  string
	Run  func(Options) error
}

// Registry lists every experiment in paper order.
var Registry = []Runner{
	{"table1", "Table 1: trainable-parameter counts per architecture", Table1},
	{"table2", "Table 2: simulator speed and memory comparison (TorQ vs naive baselines)", Table2},
	{"fig3", "Fig 3: input-angle scalings — transfer curves and measurement distributions", Fig3},
	{"fig4", "Fig 4: the six ansatz circuit schematics", Fig4},
	{"fig5", "Fig 5: initial condition and final-time Ez contours for both cases", Fig5},
	{"fig6", "Fig 6: vacuum case — best-combo loss curves and full ablation L2 errors", FigVacuumAblation},
	{"fig7", "Fig 7: vacuum case — average L2 grouped by scale and by ansatz", FigVacuumAggregates},
	{"fig8", "Fig 8: dielectric case — best-combo loss curves and full ablation L2 errors", FigDielectricAblation},
	{"fig9", "Fig 9: dielectric case — average L2 grouped by scale and by ansatz", FigDielectricAggregates},
	{"fig10", "Fig 10: black-hole anatomy — L2/loss/grad-norm/grad-var/Meyer-Wallach vs epoch, ±energy", Fig10},
	{"fig11", "Fig 11: collapsed-run field snapshots (no energy conservation loss)", Fig11},
	{"fig12", "Fig 12: second-to-last-layer output distributions at initialization", Fig12},
	{"fig14", "Fig 13/14 (appendix A): asymmetric pulse case", Fig14},
	{"sec51", "§5.1: intuitive vs region-weighted dielectric physics loss", Sec51},
	{"ibh", "§5 eqs. 33-35: black-hole index I_BH across configurations", IBHTable},
	{"bp", "§6.2(e) extension: barren-plateau gradient-variance curves vs depth and qubits", BarrenPlateau},
	{"trig", "§6.2(b) extension: QPINN vs fixed trigonometric-basis classical control", TrigControl},
	{"reup", "§6.2(c) extension: data re-uploading cycles vs single embedding", Reupload},
}

// Lookup finds an experiment by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// runStats summarizes replicate runs of one configuration.
type runStats struct {
	L2s       []float64
	IBHs      []float64
	Curves    [][]float64 // total loss per epoch per seed
	Collapsed int
}

// runConfig trains `seeds` replicates of one configuration and collects L2,
// I_BH and the loss curves.
func runConfig(o Options, p maxwell.Problem, arch core.Arch, ansatz qsim.AnsatzKind,
	scaling qsim.ScalingKind, loss maxwell.Config, ref *core.Reference) runStats {
	var st runStats
	for seed := 0; seed < o.seeds(); seed++ {
		mcfg := o.model(arch, ansatz, scaling, int64(1000+seed*37))
		tcfg := o.train(loss)
		res := core.Train(p, mcfg, tcfg, ref)
		st.L2s = append(st.L2s, res.FinalL2)
		st.IBHs = append(st.IBHs, res.FinalIBH)
		curve := make([]float64, len(res.History))
		for i, h := range res.History {
			curve[i] = h.Total
		}
		st.Curves = append(st.Curves, curve)
		if res.Collapsed {
			st.Collapsed++
		}
	}
	return st
}

// meanCurve averages per-seed loss curves.
func meanCurve(curves [][]float64) []float64 {
	if len(curves) == 0 {
		return nil
	}
	out := make([]float64, len(curves[0]))
	for _, c := range curves {
		for i := range out {
			out[i] += c[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(curves))
	}
	return out
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
