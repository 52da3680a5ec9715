// Package core assembles the paper's networks — the classical PINN baseline
// in its three depths and the hybrid QPINN with its six ansätze and five
// input scalings — and provides the training loop that ties together the
// physics losses, the Adam optimizer, the temporal curriculum, and the
// black-hole diagnostics. This is the paper's primary contribution layer.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/maxwell"
	"repro/internal/nn"
	"repro/internal/qsim"
)

// Arch selects a network architecture from Table 1.
type Arch int

const (
	ClassicalRegular Arch = iota // 4 hidden layers
	ClassicalReduced             // 3 hidden layers
	ClassicalExtra               // 5 hidden layers
	QPINN                        // 3 hidden layers + adapter + PQC
	ClassicalTrig                // QPINN topology with a fixed trig basis instead of the PQC (§6.2 control)
)

func (a Arch) String() string {
	switch a {
	case ClassicalRegular:
		return "Classical - regular"
	case ClassicalReduced:
		return "Classical - reduced layer"
	case ClassicalExtra:
		return "Classical - extra layer"
	case QPINN:
		return "QPINN"
	case ClassicalTrig:
		return "Classical - trig control"
	}
	return "unknown"
}

// ModelConfig sizes a model. The paper's scale is Hidden=128, RFFFeatures=128,
// NumQubits=7, QLayers=4; smoke presets shrink Hidden/RFFFeatures only, which
// preserves every architectural relationship of Table 1.
type ModelConfig struct {
	Arch        Arch
	Hidden      int
	RFFFeatures int
	RFFSigma    float64
	NumQubits   int
	QLayers     int
	Ansatz      qsim.AnsatzKind
	Scaling     qsim.ScalingKind
	Init        qsim.InitStrategy
	Engine      qsim.EngineKind // circuit-execution engine (zero value: sharded)
	Reupload    bool            // §6.2(c): repeat the angle embedding before every ansatz layer
	TimePeriod  float64         // initial learned period
	Seed        int64
}

// Bounds ModelConfig.Validate enforces. maxWidth is 8× the paper's 128, and
// keeps the largest weight matrix (2·RFFFeatures × Hidden) at 2M parameters.
// maxQubits is the dist worker's bound: a 2^24-amplitude state per sample is
// already far past any batch this trainer runs.
const (
	maxWidth   = 1024
	maxQubits  = 24
	maxQLayers = 64
)

// Validate reports the first field of c that NewModel cannot build a usable
// network from: an unknown architecture, ansatz, scaling, initialization or
// engine; a width outside [1, maxWidth]; a non-finite RFF scale or time
// period, or a non-positive period; or, for the architectures with a
// quantum (or trig control) layer, a qubit count outside [1, maxQubits] and,
// for the QPINN, a layer count outside [1, maxQLayers]. Configurations come
// from checkpoints as well as code, so Load checks one before building.
func (c ModelConfig) Validate() error {
	switch {
	case c.Arch < ClassicalRegular || c.Arch > ClassicalTrig:
		return fmt.Errorf("core: model config: unknown architecture %d", int(c.Arch))
	case !slices.Contains(qsim.AllAnsatze, c.Ansatz):
		return fmt.Errorf("core: model config: unknown ansatz %d", int(c.Ansatz))
	case !slices.Contains(qsim.AllScalings, c.Scaling):
		return fmt.Errorf("core: model config: unknown scaling %d", int(c.Scaling))
	case c.Init < qsim.InitRegular || c.Init > qsim.InitHalfPi:
		return fmt.Errorf("core: model config: unknown initialization %d", int(c.Init))
	case !slices.Contains(qsim.EngineKinds(), c.Engine):
		return fmt.Errorf("core: model config: unknown engine %d", int(c.Engine))
	case c.Hidden < 1 || c.Hidden > maxWidth:
		return fmt.Errorf("core: model config: hidden width %d outside [1, %d]", c.Hidden, maxWidth)
	case c.RFFFeatures < 1 || c.RFFFeatures > maxWidth:
		return fmt.Errorf("core: model config: %d RFF features outside [1, %d]", c.RFFFeatures, maxWidth)
	case math.IsNaN(c.RFFSigma) || math.IsInf(c.RFFSigma, 0):
		return fmt.Errorf("core: model config: RFF scale %v is not finite", c.RFFSigma)
	case !(c.TimePeriod > 0) || math.IsInf(c.TimePeriod, 0):
		return fmt.Errorf("core: model config: time period %v is not positive and finite", c.TimePeriod)
	}
	if c.Arch == QPINN || c.Arch == ClassicalTrig {
		if c.NumQubits < 1 || c.NumQubits > maxQubits {
			return fmt.Errorf("core: model config: %d qubits outside [1, %d]", c.NumQubits, maxQubits)
		}
	}
	if c.Arch == QPINN && (c.QLayers < 1 || c.QLayers > maxQLayers) {
		return fmt.Errorf("core: model config: %d circuit layers outside [1, %d]", c.QLayers, maxQLayers)
	}
	return nil
}

// PaperModel returns the paper-scale configuration.
func PaperModel(arch Arch, ansatz qsim.AnsatzKind, scaling qsim.ScalingKind) ModelConfig {
	return ModelConfig{
		Arch: arch, Hidden: 128, RFFFeatures: 128, RFFSigma: 1,
		NumQubits: 7, QLayers: 4, Ansatz: ansatz, Scaling: scaling,
		Init: qsim.InitRegular, TimePeriod: 4, Seed: 1,
	}
}

// SmokeModel returns a laptop-scale configuration with the same topology.
func SmokeModel(arch Arch, ansatz qsim.AnsatzKind, scaling qsim.ScalingKind) ModelConfig {
	m := PaperModel(arch, ansatz, scaling)
	m.Hidden = 32
	m.RFFFeatures = 24
	m.RFFSigma = 2
	m.NumQubits = 4
	m.QLayers = 2
	return m
}

// Model is an assembled network implementing maxwell.Forward.
type Model struct {
	Cfg     ModelConfig
	Reg     *nn.Registry
	Embed   *nn.Embedding // the input stage: periodic features and RFF
	Layers  []nn.Layer    // every layer after Embed
	Quantum *nn.Quantum   // nil for classical architectures
	Circ    *qsim.Circuit

	// TrainState carries the optimizer/curriculum state across warm restarts
	// (nil until the model has been trained or restored from a v2
	// checkpoint). See core.TrainState.
	TrainState *TrainState

	evalTape *ad.Tape // EvalFields' tape, reset and reused by every call
}

// NewModel builds the network. Layer sizes follow §2.2/§2.3: input (x,y,t) →
// embedding (6 periodic features with one learned period parameter, then
// 2·RFFFeatures fixed random Fourier features) → hidden tanh layers of width
// Hidden → output (Ez, Hx, Hy). The QPINN replaces the last hidden layer
// with an adapter to NumQubits activations, the PQC, and a NumQubits→3
// output layer — reproducing Table 1's parameter counts exactly at paper
// scale.
func NewModel(cfg ModelConfig) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := &nn.Registry{}
	m := &Model{Cfg: cfg, Reg: reg}

	m.Embed = nn.NewEmbedding(reg, rng, 2, 2, cfg.TimePeriod, cfg.RFFFeatures, cfg.RFFSigma)
	in := 2 * cfg.RFFFeatures
	h := cfg.Hidden

	hidden := map[Arch]int{ClassicalRegular: 4, ClassicalReduced: 3, ClassicalExtra: 5, QPINN: 3, ClassicalTrig: 3}[cfg.Arch]
	for i := 0; i < hidden; i++ {
		m.Layers = append(m.Layers, nn.NewDense(reg, rng, fmt.Sprintf("h%d", i+1), in, h, true))
		in = h
	}

	switch cfg.Arch {
	case QPINN:
		m.Layers = append(m.Layers, nn.NewDense(reg, rng, "adapter", in, cfg.NumQubits, true))
		m.Circ = cfg.Ansatz.Build(cfg.NumQubits, cfg.QLayers)
		if cfg.Reupload {
			m.Circ = m.Circ.WithReupload()
		}
		m.Quantum = nn.NewQuantum(reg, rng, m.Circ, cfg.Scaling, cfg.Init, cfg.Engine)
		m.Layers = append(m.Layers, m.Quantum)
		in = cfg.NumQubits
	case ClassicalTrig:
		m.Layers = append(m.Layers, nn.NewDense(reg, rng, "adapter", in, cfg.NumQubits, true))
		m.Layers = append(m.Layers, nn.NewTrig(cfg.Scaling))
		in = cfg.NumQubits
	}
	m.Layers = append(m.Layers, nn.NewDense(reg, rng, "out", in, 3, false))
	return m
}

// ParamCounts returns (classical, quantum, total) trainable parameters.
func (m *Model) ParamCounts() (classical, quantum, total int) {
	for _, p := range m.Reg.Params {
		if p.Name == "quantum.theta" {
			quantum += len(p.W)
		} else {
			classical += len(p.W)
		}
	}
	return classical, quantum, classical + quantum
}

// Forward implements maxwell.Forward: it binds nothing (the caller binds the
// registry once per tape) and evaluates the network on a coordinate batch.
func (m *Model) Forward(tp *ad.Tape, coords []float64, n int, withTangents bool) maxwell.FieldsDual {
	x := m.Embed.Forward(tp, coords, n, [dual.K]bool{withTangents, withTangents, withTangents})
	for _, l := range m.Layers {
		x = l.Forward(tp, x)
	}
	return maxwell.Split(tp, x)
}

// EvalFields evaluates all three components without gradients, and returns
// them in fresh slices. Every call runs on one tape the Model keeps and
// resets, so after the first call at a batch size the tape's buffers come
// from its pool instead of the heap. It is therefore not safe for
// concurrent calls on one Model.
func (m *Model) EvalFields(coords []float64, n int) (ez, hx, hy []float64) {
	if m.evalTape == nil {
		m.evalTape = ad.NewTape()
	}
	tp := m.evalTape
	tp.Reset()
	m.Reg.Bind(tp, false)
	f := m.Forward(tp, coords, n, false)
	return append([]float64(nil), f.Ez.V.Data()...),
		append([]float64(nil), f.Hx.V.Data()...),
		append([]float64(nil), f.Hy.V.Data()...)
}

// PenultimateActivations returns the outputs of the second-to-last layer
// (the quantum layer for QPINNs, the last tanh for classical nets) at the
// given points — the Fig. 12 initialization study's observable.
func (m *Model) PenultimateActivations(coords []float64, n int) []float64 {
	tp := ad.NewTape()
	m.Reg.Bind(tp, false)
	x := m.Embed.Forward(tp, coords, n, [dual.K]bool{})
	for _, l := range m.Layers[:len(m.Layers)-1] {
		x = l.Forward(tp, x)
	}
	return append([]float64(nil), x.V.Data()...)
}

// PenultimateQuantumAngles evaluates the network up to the quantum layer's
// scaled embedding angles (QPINN only). The registry must already be bound
// to tp.
func (m *Model) PenultimateQuantumAngles(tp *ad.Tape, coords []float64, n int) []float64 {
	if m.Quantum == nil {
		panic("core: PenultimateQuantumAngles on a classical model")
	}
	x := m.Embed.Forward(tp, coords, n, [dual.K]bool{})
	for _, l := range m.Layers {
		if l == nn.Layer(m.Quantum) {
			break
		}
		x = l.Forward(tp, x)
	}
	angles := m.Quantum.ScaleOnly(tp, x)
	return append([]float64(nil), angles.V.Data()...)
}
