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

// Embedding is the input stage of §2.2, as one tape op (ad.FourierEmbed).
// x and y are mapped to sin/cos pairs at the domain's fundamental frequency
// (strict spatial periodicity, removing the boundary-loss term per Dong &
// Ni), and t to a sin/cos pair with a *learned* period (the simulated window
// is shorter than one period). The six periodic features are then projected
// by a fixed Gaussian matrix Ω (not trainable) and mapped to [cos, sin]:
// the random Fourier features that mitigate the spectral bias of plain MLP
// PINNs (Tancik et al.). The output has 2·Features columns.
type Embedding struct {
	Lx, Ly   float64
	TPeriod  *Param    // 1×1, learned period T: t̂ = 2πt/T
	Omega    []float64 // 6×Features, row-major, fixed
	Features int
}

// NewEmbedding registers the learned time period, initialized to initT,
// and then draws Ω from N(0, σ²).
func NewEmbedding(r *Registry, rng *rand.Rand, lx, ly, initT float64, features int, sigma float64) *Embedding {
	e := &Embedding{Lx: lx, Ly: ly, TPeriod: r.New("periodic.T", 1, 1, ConstInit(initT)), Features: features}
	e.Omega = make([]float64, 6*features)
	for i := range e.Omega {
		e.Omega[i] = rng.NormFloat64() * sigma
	}
	return e
}

// Forward embeds the n points of coords (n×3 row-major: x, y, t). Tangent
// channel k is the derivative with respect to coordinate k, present where
// tangents[k] is set.
func (e *Embedding) Forward(tp *ad.Tape, coords []float64, n int, tangents [dual.K]bool) dual.D {
	var out dual.D
	scale := [2]float64{2 * math.Pi / e.Lx, 2 * math.Pi / e.Ly}
	out.V = tp.FourierEmbed(coords, n, scale, e.TPeriod.Leaf(), e.Omega, e.Features, tangents, out.T[:])
	return out
}
