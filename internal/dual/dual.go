// Package dual layers forward-mode tangent propagation on top of the
// reverse-mode tape in internal/ad. A D carries a value node and up to K
// tangent nodes — the directional derivatives of the value with respect to
// the network inputs (x, y, t for the Maxwell problems). Because tangents
// are ordinary tape nodes, the physics losses (which consume them as PDE
// derivatives) remain differentiable with respect to every network
// parameter: one reverse sweep yields exact ∂L/∂θ even when L contains
// ∂f/∂x terms. This forward-over-reverse scheme replaces PyTorch's nested
// autograd in the paper's pipeline.
package dual

import "repro/internal/ad"

// K is the number of tangent channels: ∂/∂x, ∂/∂y, ∂/∂t.
const K = 3

// D is a dual matrix: a value and K tangent channels. An invalid tangent
// handle (zero ad.Value) denotes a structurally-zero derivative, letting
// graph construction skip entire chains (e.g. parameters have no input
// tangents).
type D struct {
	V ad.Value
	T [K]ad.Value
}

// FromValue wraps a tape node with zero tangents.
func FromValue(v ad.Value) D { return D{V: v} }

// HasTangents reports whether any tangent channel is present.
func (d D) HasTangents() bool {
	for _, t := range d.T {
		if t.Valid() {
			return true
		}
	}
	return false
}

// Add returns a + b with tangents added channelwise.
func Add(tp *ad.Tape, a, b D) D {
	out := D{V: tp.Add(a.V, b.V)}
	for k := 0; k < K; k++ {
		switch {
		case a.T[k].Valid() && b.T[k].Valid():
			out.T[k] = tp.Add(a.T[k], b.T[k])
		case a.T[k].Valid():
			out.T[k] = a.T[k]
		case b.T[k].Valid():
			out.T[k] = b.T[k]
		}
	}
	return out
}

// Sub returns a − b with tangents subtracted channelwise.
func Sub(tp *ad.Tape, a, b D) D {
	out := D{V: tp.Sub(a.V, b.V)}
	for k := 0; k < K; k++ {
		switch {
		case a.T[k].Valid() && b.T[k].Valid():
			out.T[k] = tp.Sub(a.T[k], b.T[k])
		case a.T[k].Valid():
			out.T[k] = a.T[k]
		case b.T[k].Valid():
			out.T[k] = tp.Neg(b.T[k])
		}
	}
	return out
}

// Mul returns a ⊙ b with product-rule tangents.
func Mul(tp *ad.Tape, a, b D) D {
	out := D{V: tp.Mul(a.V, b.V)}
	for k := 0; k < K; k++ {
		var terms []ad.Value
		if a.T[k].Valid() {
			terms = append(terms, tp.Mul(a.T[k], b.V))
		}
		if b.T[k].Valid() {
			terms = append(terms, tp.Mul(a.V, b.T[k]))
		}
		switch len(terms) {
		case 1:
			out.T[k] = terms[0]
		case 2:
			out.T[k] = tp.Add(terms[0], terms[1])
		}
	}
	return out
}

// Scale returns a * c (constant) with tangents scaled.
func Scale(tp *ad.Tape, a D, c float64) D {
	out := D{V: tp.Scale(a.V, c)}
	for k := 0; k < K; k++ {
		if a.T[k].Valid() {
			out.T[k] = tp.Scale(a.T[k], c)
		}
	}
	return out
}

// Shift returns a + c (constant); tangents are unchanged.
func Shift(tp *ad.Tape, a D, c float64) D {
	out := D{V: tp.Shift(a.V, c)}
	out.T = a.T
	return out
}

// Neg returns −a.
func Neg(tp *ad.Tape, a D) D { return Scale(tp, a, -1) }

// Sin returns sin(a) with cos(a)-scaled tangents, as one fused tape group.
func Sin(tp *ad.Tape, a D) D { return fused(tp, ad.DualSin, a) }

// Cos returns cos(a) with −sin(a)-scaled tangents, as one fused tape group.
func Cos(tp *ad.Tape, a D) D { return fused(tp, ad.DualCos, a) }

// Tanh returns tanh(a) with (1−tanh²)-scaled tangents, as one fused tape
// group.
func Tanh(tp *ad.Tape, a D) D { return fused(tp, ad.DualTanh, a) }

// Asin returns arcsin(a) with tangent factor 1/√(1−a²), a clamped to
// ±(1−1e-9) in the factor, as one fused tape group.
func Asin(tp *ad.Tape, a D) D { return fused(tp, ad.DualAsin, a) }

// Acos returns arccos(a) with tangent factor −1/√(1−a²), a clamped to
// ±(1−1e-9) in the factor, as one fused tape group.
func Acos(tp *ad.Tape, a D) D { return fused(tp, ad.DualAcos, a) }

func fused(tp *ad.Tape, fn ad.DualFn, a D) D {
	var out D
	out.V = tp.Dual(fn, a.V, a.T[:], out.T[:])
	return out
}

// Linear applies the affine layer y = a·W + bias. W and bias carry no input
// tangents (they are parameters), so tangent channels propagate linearly:
// yₖ = aₖ·W.
func Linear(tp *ad.Tape, a D, w, bias ad.Value) D {
	out := D{V: tp.AddBias(tp.MatMul(a.V, w), bias)}
	for k := 0; k < K; k++ {
		if a.T[k].Valid() {
			out.T[k] = tp.MatMul(a.T[k], w)
		}
	}
	return out
}

// SelectCols gathers columns channelwise.
func SelectCols(tp *ad.Tape, a D, idx []int) D {
	out := D{V: tp.SelectCols(a.V, idx)}
	for k := 0; k < K; k++ {
		if a.T[k].Valid() {
			out.T[k] = tp.SelectCols(a.T[k], idx)
		}
	}
	return out
}

// Col extracts one column channelwise.
func Col(tp *ad.Tape, a D, j int) D { return SelectCols(tp, a, []int{j}) }

// SelectRows gathers rows channelwise.
func SelectRows(tp *ad.Tape, a D, idx []int) D {
	out := D{V: tp.SelectRows(a.V, idx)}
	for k := 0; k < K; k++ {
		if a.T[k].Valid() {
			out.T[k] = tp.SelectRows(a.T[k], idx)
		}
	}
	return out
}

// ConcatCols concatenates channelwise. A missing tangent on one side is
// materialized as zeros so column alignment holds.
func ConcatCols(tp *ad.Tape, a, b D) D {
	out := D{V: tp.ConcatCols(a.V, b.V)}
	for k := 0; k < K; k++ {
		at, bt := a.T[k], b.T[k]
		if !at.Valid() && !bt.Valid() {
			continue
		}
		if !at.Valid() {
			at = zerosLike(tp, a.V)
		}
		if !bt.Valid() {
			bt = zerosLike(tp, b.V)
		}
		out.T[k] = tp.ConcatCols(at, bt)
	}
	return out
}

func zerosLike(tp *ad.Tape, v ad.Value) ad.Value {
	return tp.Const(v.Rows(), v.Cols(), make([]float64, v.Rows()*v.Cols()))
}
