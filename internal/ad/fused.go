package ad

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// DualFn names the elementwise function of a fused dual group.
type DualFn uint8

const (
	DualTanh DualFn = iota // tanh; f′ = 1 − tanh²
	DualSin                // sin; f′ = cos
	DualCos                // cos; f′ = −sin
	DualAsin               // arcsin of the input clamped to [−1, 1]; f′ = 1/√(1−c²)
	DualAcos               // arccos likewise; f′ = −1/√(1−c²)
)

// dualClamp bounds c, the input of the arcsine/arccosine tangent factor
// 1/√(1−c²), away from ±1 where the factor is infinite.
const dualClamp = 1 - 1e-9

// dualGroup is one fused dual op. Its nodes are contiguous on the tape: the
// value node, then one node per valid tangent. The group's backward runs
// once, at runner, the last of its nodes that has a gradient, which the
// reverse sweep reaches first.
type dualGroup struct {
	fn     DualFn
	runner int32
	a      int32      // the input's node
	first  bool       // the backward is dx's first writer (tape.go)
	x, dx  []float64  // input a and its gradient (nil: a needs none)
	y, dy  []float64  // the value and its gradient
	d      []float64  // f′(a), pooled
	lanes  []dualLane // the tangents
}

// dualLane is one tangent channel of a group: the input tangent aₖ (node
// xi), the output f′(a)⊙aₖ, and their gradients (nil where there is none).
type dualLane struct {
	xi    int32
	first bool // the backward is dx's first writer
	x, dx []float64
	y, g  []float64
}

// dualBlock is the number of elements a group's range kernels take at a
// time: small enough that a block of each array they stream, and the
// backward's f′ gradient on the stack, stay in L1.
const dualBlock = 512

// Dual applies fn to a as one fused tape group. It returns fn(a) and sets
// out[k] to the tangent fn′(a)⊙tan[k] for every valid tan[k], leaving out[k]
// invalid where tan[k] is. The values and every gradient equal those of the
// composed chain dual.Tanh/Sin/Cos/Asin/Acos used to build — fn(a), f′(a) as
// its own nodes, one Mul per tangent — bit for bit (see the package doc).
// With no valid tangent it is the plain elementwise op.
func (t *Tape) Dual(fn DualFn, a Value, tan, out []Value) Value {
	if fn > DualAcos {
		panic(fmt.Sprintf("ad: unknown DualFn %d", fn))
	}
	if !anyValid(tan) {
		switch fn {
		case DualTanh:
			return t.Tanh(a)
		case DualSin:
			return t.Sin(a)
		case DualCos:
			return t.Cos(a)
		case DualAsin:
			return t.Asin(a)
		default:
			return t.Acos(a)
		}
	}
	gi := t.openGroup(a)
	g := &t.groups[gi]
	g.fn = fn
	v := t.groupNode(a.i, gi)
	g.y, g.dy = t.nodes[v.i].val, t.nodes[v.i].grad
	g.d = t.pool.get(len(g.x))
	first := len(t.lanes)
	t.groupLanes(gi, a, tan, out)
	g.lanes = t.lanes[first:]
	g.runner = t.lastWithGrad(v.i)
	par.For(len(g.x), func(s, e int) { dualFwdRange(g, s, e) })
	return v
}

func anyValid(vs []Value) bool {
	for _, v := range vs {
		if v.Valid() {
			return true
		}
	}
	return false
}

// openGroup appends a group over input a and returns its index.
func (t *Tape) openGroup(a Value) int32 {
	na := &t.nodes[a.i]
	t.groups = append(t.groups, dualGroup{a: a.i, x: na.val, dx: na.grad})
	return int32(len(t.groups) - 1)
}

// groupNode appends a group's value node, shaped like a; it needs a
// gradient exactly when a does.
func (t *Tape) groupNode(a, gi int32) Value {
	na := &t.nodes[a]
	v, _ := t.newNode(OpDual, a, gi, int(na.rows), int(na.cols), na.grad != nil)
	return v
}

// groupLanes appends one node and one lane per valid tangent of a group and
// sets out[k] to the node. A tangent node needs a gradient when
// a or its input tangent does, as the chain's Mul did.
func (t *Tape) groupLanes(gi int32, a Value, tan, out []Value) {
	if len(out) != len(tan) {
		panic(fmt.Sprintf("ad: %d tangent outputs for %d tangents", len(out), len(tan)))
	}
	for k, tk := range tan {
		if !tk.Valid() {
			continue
		}
		na, nk := &t.nodes[a.i], &t.nodes[tk.i]
		if !sameShape(na, nk) {
			panic(fmt.Sprintf("ad: tangent %d×%d of a %d×%d value", nk.rows, nk.cols, na.rows, na.cols))
		}
		o, on := t.newNode(OpDual, tk.i, gi, int(na.rows), int(na.cols), na.grad != nil || nk.grad != nil)
		t.lanes = append(t.lanes, dualLane{xi: tk.i, x: nk.val, dx: nk.grad, y: on.val, g: on.grad})
		out[k] = o
	}
}

// lastWithGrad returns the index of the last node from first on that has a
// gradient, or -1.
func (t *Tape) lastWithGrad(first int32) int32 {
	for i := int32(len(t.nodes)) - 1; i >= first; i-- {
		if t.nodes[i].grad != nil {
			return i
		}
	}
	return -1
}

// dualBackward runs a group's whole backward. Its writes reach each input
// gradient in the chain's order, the tangent lanes last first and then a's
// own terms, so that is the order in which they take the first-writer
// flags.
func (t *Tape) dualBackward(g *dualGroup) {
	for l := len(g.lanes) - 1; l >= 0; l-- {
		if ln := &g.lanes[l]; ln.g != nil && ln.dx != nil {
			_, ln.first = t.gradOf(ln.xi)
		}
	}
	if g.dx != nil {
		_, g.first = t.gradOf(g.a)
	}
	par.For(len(g.x), func(s, e int) { dualBwdRange(g, s, e) })
}

// dualFwdRange writes the group's value, f′ and tangents over elements
// [s, e), one block at a time.
//
//torq:hotpath
func dualFwdRange(g *dualGroup, s, e int) {
	for bs := s; bs < e; bs += dualBlock {
		be := min(bs+dualBlock, e)
		x, y, d := g.x[bs:be], g.y[bs:be], g.d[bs:be]
		y, d = y[:len(x)], d[:len(x)]
		switch g.fn {
		case DualTanh:
			tanhSlice(y, x)
			for i, v := range y {
				d[i] = -(v * v) + 1
			}
		case DualSin:
			for i, xi := range x {
				y[i], d[i] = sincos(xi)
			}
		case DualCos:
			for i, xi := range x {
				sin, cos := sincos(xi)
				y[i], d[i] = cos, -sin
			}
		case DualAsin:
			for i, xi := range x {
				y[i] = math.Asin(clamp1(xi))
				d[i] = 1 / asinDen(xi)
			}
		case DualAcos:
			for i, xi := range x {
				y[i] = math.Acos(clamp1(xi))
				d[i] = -(1 / asinDen(xi))
			}
		}
		for l := range g.lanes {
			ln := &g.lanes[l]
			mulInto(ln.y[bs:be], d, ln.x[bs:be])
		}
	}
}

// sincos returns math.Sin(x) and math.Cos(x) bit for bit at about two
// thirds of their cost. math.Sincos runs the same argument reduction and
// polynomials as the two functions and shares them; it differs only in
// returning a canonical NaN for a NaN x, where math.Sin returns x itself.
func sincos(x float64) (sin, cos float64) {
	sin, cos = math.Sincos(x)
	if x != x {
		sin = x
	}
	return sin, cos
}

// mulInto writes out[i] = d[i]·x[i], the chain's Mul(f′, aₖ).
//
//torq:hotpath
func mulInto(out, d, x []float64) {
	d, x = d[:len(out)], x[:len(out)]
	for i := range out {
		out[i] = d[i] * x[i]
	}
}

// asinDen is the chain's √(1 − c²) for c = x clamped to ±dualClamp, with the
// square negated and then shifted by one, as Square, Neg and Shift did.
func asinDen(x float64) float64 {
	c := clampTo(x, dualClamp)
	return math.Sqrt(-(c * c) + 1)
}

func clampTo(x, c float64) float64 {
	if x > c {
		return c
	}
	if x < -c {
		return -c
	}
	return x
}

// dualBwdRange is the group's backward over elements [s, e), one block
// at a time. It replays, per element, the backward of the chain the group
// replaced. The chain's Mul nodes came first, last tangent first: one pass
// per lane adds gₖ·aₖ to f′'s gradient gd (summed from +0, on the stack)
// and gₖ·f′ to aₖ's gradient. A last pass replays the chain that built f′
// from a, one rounded operation per former node (a constant shift is 0+x
// and a negation 0−x on a gradient that started at zero), and then adds
// the value node's own term to a's gradient.
//
//torq:hotpath
func dualBwdRange(g *dualGroup, s, e int) {
	var gd [dualBlock]float64
	for bs := s; bs < e; bs += dualBlock {
		be := min(bs+dualBlock, e)
		dualBwdBlock(g, gd[:be-bs], bs)
	}
}

// dualBwdBlock is dualBwdRange over the len(gd) elements from bs. When a
// needs a gradient, so does every tangent node, so the lanes always write
// gd before the last pass reads it.
//
//torq:hotpath
func dualBwdBlock(g *dualGroup, gd []float64, bs int) {
	be := bs + len(gd)
	d := g.d[bs:be]
	for l := len(g.lanes) - 1; l >= 0; l-- {
		ln := &g.lanes[l]
		if ln.g == nil {
			continue
		}
		gk := ln.g[bs:be]
		if g.dx != nil {
			mulAddTo(gd, gk, ln.x[bs:be], l == len(g.lanes)-1)
		}
		if ln.dx != nil {
			mulAddTo(ln.dx[bs:be], gk, d, ln.first)
		}
	}
	if g.dx == nil {
		return
	}
	x, y, dy, dx := g.x[bs:be], g.y[bs:be], g.dy[bs:be], g.dx[bs:be]
	x, y, dy, dx, d = x[:len(gd)], y[:len(gd)], dy[:len(gd)], dx[:len(gd)], d[:len(gd)]
	first := g.first
	switch g.fn {
	case DualTanh:
		for i, gdi := range gd {
			yi := y[i]
			// f′ = Shift(Neg(Square(y)), 1): Square's term joins y's gradient
			// before the tanh factor applies it to a.
			gy := dy[i] + (0-(0+gdi))*(2*yi)
			dy[i] = gy
			dx[i] = start(dx, i, first) + gy*(1-yi*yi)
		}
	case DualSin:
		for i, gdi := range gd {
			acc := start(dx, i, first) + gdi*-y[i]
			dx[i] = acc + dy[i]*d[i]
		}
	case DualCos:
		for i, gdi := range gd {
			acc := start(dx, i, first) + (0-gdi)*y[i]
			dx[i] = acc + dy[i]*d[i]
		}
	case DualAsin, DualAcos:
		for i, gdi := range gd {
			xi := x[i]
			var dv float64
			if g.fn == DualAcos {
				gdi = 0 - gdi // f′ = Neg(Div(1, den))
				dv = -1 / math.Sqrt(math.Max(1-xi*xi, asinEps))
			} else {
				dv = 1 / math.Sqrt(math.Max(1-xi*xi, asinEps))
			}
			// den = Sqrt(Shift(Neg(Square(Clamp(a))), 1)); f′ = Div(1, den).
			c := clampTo(xi, dualClamp)
			den := math.Sqrt(-(c * c) + 1)
			gden := 0 - gdi/(den*den)
			gsq := 0 - (0 + (0 + gden*(0.5/den)))
			gc := 0 + gsq*(2*c)
			acc := start(dx, i, first)
			if xi > -dualClamp && xi < dualClamp {
				acc += gc
			}
			dx[i] = acc + dy[i]*dv
		}
	}
}

// start returns dx[i], where a's gradient sum continues, or +0 when the
// group is the gradient's first writer.
func start(dx []float64, i int, first bool) float64 {
	if first {
		return 0
	}
	return dx[i]
}
