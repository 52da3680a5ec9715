package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/qsim"
)

// savedCheckpoint returns the bytes of a saved checkpoint of cfg's model
// with the stored configuration then passed through edit.
func savedCheckpoint(t testing.TB, cfg ModelConfig, edit func(*ModelConfig)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewModel(cfg).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := gob.NewDecoder(&buf).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	edit(&ck.Cfg)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsInvalidConfig: a checkpoint whose configuration NewModel
// cannot build (it used to panic in makeslice or qsim, or build a model that
// failed on its first forward pass) is refused with an error naming the
// field, before any network is allocated.
func TestLoadRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name, want string
		edit       func(*ModelConfig)
	}{
		{"negative hidden", "hidden width -5", func(c *ModelConfig) { c.Hidden = -5 }},
		{"negative RFF features", "-1 RFF features", func(c *ModelConfig) { c.RFFFeatures = -1 }},
		{"huge hidden", "hidden width 1073741824", func(c *ModelConfig) { c.Hidden = 1 << 30 }},
		{"huge RFF features", "1025 RFF features", func(c *ModelConfig) { c.RFFFeatures = maxWidth + 1 }},
		{"unknown ansatz", "unknown ansatz 99", func(c *ModelConfig) { c.Ansatz = 99 }},
		{"unknown architecture", "unknown architecture 99", func(c *ModelConfig) { c.Arch = 99 }},
		{"unknown scaling", "unknown scaling -1", func(c *ModelConfig) { c.Scaling = -1 }},
		{"unknown init", "unknown initialization 7", func(c *ModelConfig) { c.Init = 7 }},
		{"unknown engine", "unknown engine 42", func(c *ModelConfig) { c.Engine = 42 }},
		// 2 named the retired per-gate engine; it must not run as another.
		{"retired engine 2", "unknown engine 2", func(c *ModelConfig) { c.Engine = 2 }},
		{"40 qubits", "40 qubits", func(c *ModelConfig) { c.NumQubits = 40 }},
		{"no qubits", "0 qubits", func(c *ModelConfig) { c.NumQubits = 0 }},
		{"negative layers", "-3 circuit layers", func(c *ModelConfig) { c.QLayers = -3 }},
		{"NaN RFF scale", "RFF scale NaN", func(c *ModelConfig) { c.RFFSigma = math.NaN() }},
		{"zero period", "time period 0", func(c *ModelConfig) { c.TimePeriod = 0 }},
		{"trig control with 40 qubits", "40 qubits", func(c *ModelConfig) { c.Arch, c.NumQubits = ClassicalTrig, 40 }},
	}
	smoke := SmokeModel(QPINN, qsim.CrossMesh, qsim.ScaleAcos)
	for _, c := range cases {
		m, err := Load(bytes.NewReader(savedCheckpoint(t, smoke, c.edit)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load = %v, %v; want an error containing %q", c.name, m, err, c.want)
		}
	}
	// Fields an architecture does not use are not checked.
	m, err := Load(bytes.NewReader(savedCheckpoint(t, smoke, func(c *ModelConfig) {
		c.Arch, c.NumQubits, c.QLayers = ClassicalRegular, 0, 0
	})))
	if err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Errorf("classical config without qubits: Load = %v, %v; want it past Validate to the parameter check", m, err)
	}
	if _, err := Load(bytes.NewReader(savedCheckpoint(t, smoke, func(*ModelConfig) {}))); err != nil {
		t.Fatalf("unedited checkpoint: %v", err)
	}
}

// TestOneQubitModelsLoad: Validate accepts one qubit, so a one-qubit model
// of every ansatz must build, save and load. The entangling ansätze emit no
// CNOTs there (Strongly-Entangling's layer gap once divided by zero).
func TestOneQubitModelsLoad(t *testing.T) {
	for _, a := range qsim.AllAnsatze {
		cfg := SmokeModel(QPINN, a, qsim.ScaleAcos)
		cfg.NumQubits = 1
		if _, err := Load(bytes.NewReader(savedCheckpoint(t, cfg, func(*ModelConfig) {}))); err != nil {
			t.Errorf("%v: one-qubit checkpoint: %v", a, err)
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes, seeded with a saved checkpoint of
// the smoke QPINN topology and with invalid configurations: it must return a
// model or an error, never panic, and a model it returns must have a valid
// configuration. The seed's widths are cut to one or two units, so it is
// 730 bytes rather than the smoke model's 34 KB: the fuzzer minimizes every
// input that finds new coverage, and on a large input that takes most of a
// short run.
func FuzzLoad(f *testing.F) {
	tiny := SmokeModel(QPINN, qsim.CrossMesh, qsim.ScaleAcos)
	tiny.Hidden, tiny.RFFFeatures, tiny.NumQubits, tiny.QLayers = 2, 1, 2, 1
	f.Add(savedCheckpoint(f, tiny, func(*ModelConfig) {}))
	f.Add(savedCheckpoint(f, tiny, func(c *ModelConfig) { c.Hidden = -5 }))
	f.Add(savedCheckpoint(f, tiny, func(c *ModelConfig) { c.Ansatz = 99 }))
	f.Add(savedCheckpoint(f, tiny, func(c *ModelConfig) { c.NumQubits = 40 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Cfg.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid configuration: %v", err)
		}
	})
}
