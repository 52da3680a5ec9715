package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/qsim"
)

func tinyOptions(buf *strings.Builder) Options {
	return Options{
		Preset:   Smoke,
		Seeds:    1,
		Epochs:   3,
		Out:      buf,
		Ansatze:  []qsim.AnsatzKind{qsim.StronglyEntangling},
		Scalings: []qsim.ScalingKind{qsim.ScaleAcos},
	}
}

// TestRegistryComplete: every table and figure of the paper's evaluation has
// a registered regenerator.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig14", "sec51", "ibh", "bp", "trig", "reup"}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

// TestFastExperimentsRun: the deterministic (non-training) experiments must
// produce their headline content.
func TestFastExperimentsRun(t *testing.T) {
	cases := []struct {
		name     string
		contains []string
	}{
		{"table1", []string{"82820", "66848", "66932", "67044", "67072"}},
		{"fig3", []string{"scale_asin", "Pauli-Z distribution"}},
		{"fig4", []string{"Strongly Entangling Layers", "⟨Z⟩", "●"}},
		{"fig12", []string{"init_zeros", "init_pi", "classical"}},
	}
	for _, c := range cases {
		var buf strings.Builder
		r, _ := Lookup(c.name)
		if err := r.Run(tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, want := range c.contains {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s output missing %q", c.name, want)
			}
		}
	}
}

// TestTrainingExperimentsSmoke: the training-based experiments run end to
// end at a 3-epoch micro scale without error and emit their tables.
func TestTrainingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments skipped in -short mode")
	}
	for _, name := range []string{"fig11", "sec51"} {
		var buf strings.Builder
		r, _ := Lookup(name)
		o := tinyOptions(&buf)
		if err := r.Run(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "|") {
			t.Errorf("%s produced no table", name)
		}
	}
}

// TestAblationRespectsFilters: a restricted sweep only trains the requested
// combinations (checked via the output rows).
func TestAblationRespectsFilters(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiments skipped in -short mode")
	}
	var buf strings.Builder
	r, _ := Lookup("fig6")
	o := tinyOptions(&buf)
	if err := r.Run(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Strongly Entangling Layers") {
		t.Error("requested ansatz missing from sweep output")
	}
	if strings.Contains(out, "Cross-Mesh-CNOT") {
		t.Error("filtered-out ansatz appeared in sweep output")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Preset: Smoke}
	if o.seeds() != 2 || o.epochs() != 200 {
		t.Fatalf("smoke defaults: %d seeds, %d epochs", o.seeds(), o.epochs())
	}
	o = Options{Preset: Paper}
	if o.seeds() != 5 || o.epochs() != 25000 {
		t.Fatalf("paper defaults: %d seeds, %d epochs", o.seeds(), o.epochs())
	}
	o = Options{Preset: Smoke, Seeds: 3, Epochs: 77}
	if o.seeds() != 3 || o.epochs() != 77 {
		t.Fatal("overrides ignored")
	}
	if got := len(Options{}.ansatze()); got != 6 {
		t.Fatalf("default ansatz sweep size %d", got)
	}
	if got := len(Options{}.scalings()); got != 5 {
		t.Fatalf("default scaling sweep size %d", got)
	}
}

// TestSmokeProblemWidensPulse: the documented smoke substitution halves the
// pulse's spectral content without touching the paper preset.
func TestSmokeProblemWidensPulse(t *testing.T) {
	smoke := Options{Preset: Smoke}
	paper := Options{Preset: Paper}
	ps := smoke.problem(0)
	pp := paper.problem(0)
	if math.Float64bits(ps.Pulse.SX) != math.Float64bits(2*pp.Pulse.SX) {
		t.Fatalf("smoke pulse SX %v vs paper %v", ps.Pulse.SX, pp.Pulse.SX)
	}
	if math.Float64bits(ps.TMax) != math.Float64bits(pp.TMax) {
		t.Fatal("smoke preset must not change the time horizon")
	}
}

// TestParsePresetRoundTrip pins the -preset flag table: every preset
// round-trips through its name, and an unknown name (a misspelt "paper"
// once silently ran the smoke preset) errors with every valid name listed.
func TestParsePresetRoundTrip(t *testing.T) {
	for _, want := range []Preset{Smoke, Paper} {
		got, err := ParsePreset(presetFlags[want])
		if err != nil || got != want {
			t.Errorf("preset %d: ParsePreset(%q) = %v, %v", want, presetFlags[want], got, err)
		}
	}
	_, err := ParsePreset("papr")
	if err == nil {
		t.Fatal(`ParsePreset accepted "papr"`)
	}
	for _, name := range append([]string{"papr"}, presetFlags[:]...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}
