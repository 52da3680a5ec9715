package nn

import (
	"math"
	"math/rand"

	"repro/internal/ad"
	"repro/internal/dual"
)

// Layer transforms a dual batch on the tape.
type Layer interface {
	Forward(tp *ad.Tape, x dual.D) dual.D
}

// Dense is an affine layer with optional tanh activation.
type Dense struct {
	W, B *Param
	Tanh bool
}

// NewDense creates a Glorot-initialized in×out dense layer.
func NewDense(r *Registry, rng *rand.Rand, name string, in, out int, tanh bool) *Dense {
	return &Dense{
		W:    r.New(name+".w", in, out, XavierInit(rng, in, out)),
		B:    r.New(name+".b", 1, out, ZeroInit),
		Tanh: tanh,
	}
}

// Forward applies y = act(x·W + b) with tangent propagation.
func (d *Dense) Forward(tp *ad.Tape, x dual.D) dual.D {
	y := dual.Linear(tp, x, d.W.Leaf(), d.B.Leaf())
	if d.Tanh {
		y = dual.Tanh(tp, y)
	}
	return y
}

// RFF is the random Fourier feature embedding of §2.2: a fixed Gaussian
// projection Ω (not trainable) followed by [cos, sin] feature maps,
// producing 2·Features outputs. It mitigates the spectral bias of plain
// MLP PINNs (Tancik et al.).
type RFF struct {
	Omega    []float64 // in×Features, row-major, fixed
	In       int
	Features int
}

// NewRFF draws Ω once from N(0, σ²).
func NewRFF(rng *rand.Rand, in, features int, sigma float64) *RFF {
	om := make([]float64, in*features)
	for i := range om {
		om[i] = rng.NormFloat64() * sigma
	}
	return &RFF{Omega: om, In: in, Features: features}
}

// Forward maps x ↦ [cos(xΩ), sin(xΩ)].
func (f *RFF) Forward(tp *ad.Tape, x dual.D) dual.D {
	z := dual.MatMulC(tp, x, f.Omega, f.Features)
	cos, sin := dual.CosSin(tp, z)
	return dual.ConcatCols(tp, cos, sin)
}

// Periodic implements the input embedding of §2.2: x and y are mapped to
// sin/cos pairs at the domain's fundamental frequency (strict spatial
// periodicity, removing the boundary-loss term per Dong & Ni), while t is
// mapped to sin/cos with a *learned* period parameter (the simulated window
// is shorter than one period). Input is the raw (x, y, t) batch; output has
// 6 columns: [sin x̂, cos x̂, sin ŷ, cos ŷ, sin t̂, cos t̂].
type Periodic struct {
	Lx, Ly  float64
	TPeriod *Param // 1×1, learned period T: t̂ = 2πt/T
}

// NewPeriodic creates the embedding with the learned time period initialized
// to initT.
func NewPeriodic(r *Registry, lx, ly, initT float64) *Periodic {
	return &Periodic{Lx: lx, Ly: ly, TPeriod: r.New("periodic.T", 1, 1, ConstInit(initT))}
}

// Forward expects x with 3 columns (x, y, t).
func (p *Periodic) Forward(tp *ad.Tape, x dual.D) dual.D {
	xs := dual.Scale(tp, dual.Col(tp, x, 0), 2*math.Pi/p.Lx)
	ys := dual.Scale(tp, dual.Col(tp, x, 1), 2*math.Pi/p.Ly)
	// ω = 2π/T as a differentiable scalar.
	one := tp.ConstScalar(2 * math.Pi)
	omega := tp.Div(one, p.TPeriod.Leaf())
	ts := dual.ScaleVar(tp, dual.Col(tp, x, 2), omega)
	xf := sinCosCols(tp, xs)
	yf := sinCosCols(tp, ys)
	tf := sinCosCols(tp, ts)
	return dual.ConcatCols(tp, dual.ConcatCols(tp, xf, yf), tf)
}

// sinCosCols returns [sin a | cos a], the two computed as one fused pair.
func sinCosCols(tp *ad.Tape, a dual.D) dual.D {
	sin, cos := dual.SinCos(tp, a)
	return dual.ConcatCols(tp, sin, cos)
}
