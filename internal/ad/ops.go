package ad

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// binary creates an elementwise binary node after shape checking.
func (t *Tape) binary(op Op, a, b Value, fw func(x, y float64) float64) Value {
	na, nb := &t.nodes[a.i], &t.nodes[b.i]
	if !sameShape(na, nb) {
		panic(fmt.Sprintf("ad: shape mismatch %d×%d vs %d×%d (op %d)", na.rows, na.cols, nb.rows, nb.cols, op))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(b.i)
	v, n := t.newNode(op, a.i, b.i, int(na.rows), int(na.cols), ng)
	av, bv, out := na.val, nb.val, n.val
	par.For(len(out), func(s, e int) {
		for i := s; i < e; i++ {
			out[i] = fw(av[i], bv[i])
		}
	})
	return v
}

// unary creates an elementwise unary node.
func (t *Tape) unary(op Op, a Value, c float64, fw func(x float64) float64) Value {
	return t.unarySlice(op, a, c, func(y, x []float64) {
		for i, xi := range x {
			y[i] = fw(xi)
		}
	})
}

// unarySlice creates an elementwise unary node; fw maps each chunk of a's
// values x to the node's values y.
func (t *Tape) unarySlice(op Op, a Value, c float64, fw func(y, x []float64)) Value {
	na := &t.nodes[a.i]
	v, n := t.newNode(op, a.i, -1, int(na.rows), int(na.cols), t.needsGrad(a.i))
	n.c = c
	av, out := na.val, n.val
	par.For(len(out), func(s, e int) { fw(out[s:e], av[s:e]) })
	return v
}

// Add returns a + b elementwise.
func (t *Tape) Add(a, b Value) Value {
	return t.binary(OpAdd, a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns a − b elementwise.
func (t *Tape) Sub(a, b Value) Value {
	return t.binary(OpSub, a, b, func(x, y float64) float64 { return x - y })
}

// Mul returns a ⊙ b elementwise.
func (t *Tape) Mul(a, b Value) Value {
	return t.binary(OpMul, a, b, func(x, y float64) float64 { return x * y })
}

// Div returns a ⊘ b elementwise.
func (t *Tape) Div(a, b Value) Value {
	return t.binary(OpDiv, a, b, func(x, y float64) float64 { return x / y })
}

// Scale returns a * c for a scalar constant c.
func (t *Tape) Scale(a Value, c float64) Value {
	return t.unary(OpScale, a, c, func(x float64) float64 { return x * c })
}

// Shift returns a + c for a scalar constant c.
func (t *Tape) Shift(a Value, c float64) Value {
	return t.unary(OpShift, a, c, func(x float64) float64 { return x + c })
}

// Neg returns −a.
func (t *Tape) Neg(a Value) Value {
	return t.unary(OpNeg, a, 0, func(x float64) float64 { return -x })
}

// Sin returns sin(a) elementwise.
func (t *Tape) Sin(a Value) Value { return t.unary(OpSin, a, 0, math.Sin) }

// Cos returns cos(a) elementwise.
func (t *Tape) Cos(a Value) Value { return t.unary(OpCos, a, 0, math.Cos) }

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a Value) Value { return t.unarySlice(OpTanh, a, 0, tanhSlice) }

// Exp returns exp(a) elementwise.
func (t *Tape) Exp(a Value) Value { return t.unary(OpExp, a, 0, math.Exp) }

// Square returns a² elementwise.
func (t *Tape) Square(a Value) Value {
	return t.unary(OpSquare, a, 0, func(x float64) float64 { return x * x })
}

// Sqrt returns √a elementwise.
func (t *Tape) Sqrt(a Value) Value { return t.unary(OpSqrt, a, 0, math.Sqrt) }

// asinEps guards the arcsine/arccosine derivative 1/√(1−x²) against the
// open-interval boundary: tanh activations approach ±1 but never reach it,
// so the clamp only matters for pathological inputs.
const asinEps = 1e-12

// Asin returns arcsin(a) elementwise (inputs clamped to [−1, 1]).
func (t *Tape) Asin(a Value) Value {
	return t.unary(OpAsin, a, 0, func(x float64) float64 {
		return math.Asin(clamp1(x))
	})
}

// Acos returns arccos(a) elementwise (inputs clamped to [−1, 1]).
func (t *Tape) Acos(a Value) Value {
	return t.unary(OpAcos, a, 0, func(x float64) float64 {
		return math.Acos(clamp1(x))
	})
}

// Clamp returns a clamped elementwise to [−c, c].
func (t *Tape) Clamp(a Value, c float64) Value {
	return t.unary(OpClamp, a, c, func(x float64) float64 {
		if x > c {
			return c
		}
		if x < -c {
			return -c
		}
		return x
	})
}

func clamp1(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// AddBias returns a[n×m] + bias[1×m], broadcasting the bias over rows.
func (t *Tape) AddBias(a, bias Value) Value {
	na, nb := &t.nodes[a.i], &t.nodes[bias.i]
	if nb.rows != 1 || nb.cols != na.cols {
		panic(fmt.Sprintf("ad: AddBias shape %d×%d + %d×%d", na.rows, na.cols, nb.rows, nb.cols))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(bias.i)
	v, n := t.newNode(OpAddBias, a.i, bias.i, int(na.rows), int(na.cols), ng)
	av, bv, out := na.val, nb.val, n.val
	cols := int(na.cols)
	par.For(int(na.rows), func(s, e int) {
		for r := s; r < e; r++ {
			row := av[r*cols : (r+1)*cols]
			dst := out[r*cols : (r+1)*cols]
			for j, x := range row {
				dst[j] = x + bv[j]
			}
		}
	})
	return v
}

// RowScale returns a[n×c] scaled per row by s[n×1]: out[i,j] = a[i,j]*s[i].
func (t *Tape) RowScale(a, s Value) Value {
	na, ns := &t.nodes[a.i], &t.nodes[s.i]
	if ns.cols != 1 || ns.rows != na.rows {
		panic(fmt.Sprintf("ad: RowScale shape %d×%d by %d×%d", na.rows, na.cols, ns.rows, ns.cols))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(s.i)
	v, n := t.newNode(OpRowScale, a.i, s.i, int(na.rows), int(na.cols), ng)
	av, sv, out := na.val, ns.val, n.val
	cols := int(na.cols)
	par.For(int(na.rows), func(st, e int) {
		for r := st; r < e; r++ {
			f := sv[r]
			row := av[r*cols : (r+1)*cols]
			dst := out[r*cols : (r+1)*cols]
			for j, x := range row {
				dst[j] = x * f
			}
		}
	})
	return v
}
