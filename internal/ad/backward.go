package ad

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Backward runs the reverse sweep from a scalar loss node, writing
// gradients into every node that requires them. It may be called once per
// tape build. Gradient buffers come from the pool unzeroed (see tape.go):
// the first writer of a step stores where later ones add, and a gradient no
// consumer wrote is zeroed before its node's own backprop runs, so its zero
// terms still reach the node's inputs (0·Inf = NaN) and every gradient read
// after Backward is exact, not accumulated across steps.
func (t *Tape) Backward(loss Value) {
	ln := &t.nodes[loss.i]
	if ln.rows != 1 || ln.cols != 1 {
		panic(fmt.Sprintf("ad: Backward on non-scalar %d×%d node", ln.rows, ln.cols))
	}
	if ln.grad == nil {
		return // loss independent of any differentiable input
	}
	ln.grad[0], ln.written = 1, true
	for i := int32(len(t.nodes)) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		switch {
		case n.grad == nil:
		case n.op == OpDual:
			if g := &t.groups[n.b]; g.runner == i {
				t.settleGroup(i)
				t.dualBackward(g)
			}
		case n.op == OpEmbed:
			if e := t.embeds[n.b]; e.runner == i {
				t.settleGroup(i)
				t.embedBackward(e)
			}
		default:
			n.settle()
			if n.op != OpLeaf && n.op != OpConst {
				t.backprop(n)
			}
		}
	}
}

func (t *Tape) backprop(n *node) {
	g := n.grad
	switch n.op {
	case OpAdd:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, 1, first)
		}
		if db, first := t.gradOf(n.b); db != nil {
			axpy(db, g, 1, first)
		}
	case OpSub:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, 1, first)
		}
		if db, first := t.gradOf(n.b); db != nil {
			axpy(db, g, -1, first)
		}
	case OpMul:
		av, bv := t.nodes[n.a].val, t.nodes[n.b].val
		if da, first := t.gradOf(n.a); da != nil {
			par.For(len(g), func(s, e int) { mulAddTo(da[s:e], g[s:e], bv[s:e], first) })
		}
		if db, first := t.gradOf(n.b); db != nil {
			par.For(len(g), func(s, e int) { mulAddTo(db[s:e], g[s:e], av[s:e], first) })
		}
	case OpDiv:
		av, bv := t.nodes[n.a].val, t.nodes[n.b].val
		if da, first := t.gradOf(n.a); da != nil {
			par.For(len(g), func(s, e int) {
				if first {
					for i := s; i < e; i++ {
						da[i] = 0 + g[i]/bv[i]
					}
					return
				}
				for i := s; i < e; i++ {
					da[i] += g[i] / bv[i]
				}
			})
		}
		if db, first := t.gradOf(n.b); db != nil {
			par.For(len(g), func(s, e int) {
				if first {
					for i := s; i < e; i++ {
						db[i] = 0 - g[i]*av[i]/(bv[i]*bv[i])
					}
					return
				}
				for i := s; i < e; i++ {
					db[i] -= g[i] * av[i] / (bv[i] * bv[i])
				}
			})
		}
	case OpScale:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, n.c, first)
		}
	case OpShift:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, 1, first)
		}
	case OpNeg:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, -1, first)
		}
	case OpSin:
		t.unaryBack(n, func(x, y float64) float64 { return math.Cos(x) })
	case OpCos:
		t.unaryBack(n, func(x, y float64) float64 { return -math.Sin(x) })
	case OpTanh:
		t.unaryBack(n, func(x, y float64) float64 { return 1 - y*y })
	case OpExp:
		t.unaryBack(n, func(x, y float64) float64 { return y })
	case OpSquare:
		t.unaryBack(n, func(x, y float64) float64 { return 2 * x })
	case OpSqrt:
		t.unaryBack(n, func(x, y float64) float64 { return 0.5 / y })
	case OpAsin:
		t.unaryBack(n, func(x, y float64) float64 {
			return 1 / math.Sqrt(math.Max(1-x*x, asinEps))
		})
	case OpAcos:
		t.unaryBack(n, func(x, y float64) float64 {
			return -1 / math.Sqrt(math.Max(1-x*x, asinEps))
		})
	case OpClamp:
		av := t.nodes[n.a].val
		if da := (Value{t, n.a}).Grad(); da != nil {
			c := n.c
			par.For(len(g), func(s, e int) {
				for i := s; i < e; i++ {
					if av[i] > -c && av[i] < c {
						da[i] += g[i]
					}
				}
			})
		}
	case OpMatMul:
		na, nb := &t.nodes[n.a], &t.nodes[n.b]
		rows, k, m := int(na.rows), int(na.cols), int(nb.cols)
		if da, first := t.gradOf(n.a); da != nil { // NT: dA += dC·Wᵀ
			mode := gemmFresh
			if first {
				mode = gemmStore
			}
			gemm(da, g, ntPanel(&t.panel, nb.val, m, k), rows, k, m, m, 1, mode)
		}
		if db, first := t.gradOf(n.b); db != nil { // TN: dW += Xᵀ·dC
			mode := gemmAcc
			if first {
				mode = gemmStore
			}
			gemm(db, na.val, g, k, m, rows, 1, k, mode)
		}
	case OpAddBias:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, g, 1, first)
		}
		if db, first := t.gradOf(n.b); db != nil {
			cols := int(n.cols)
			for r := 0; r < int(n.rows); r++ {
				addTo(db, g[r*cols:(r+1)*cols], first && r == 0)
			}
		}
	case OpRowScale:
		na, ns := &t.nodes[n.a], &t.nodes[n.b]
		cols := int(n.cols)
		da, firstA := t.gradOf(n.a)
		ds, firstS := t.gradOf(n.b)
		par.For(int(n.rows), func(s, e int) {
			for r := s; r < e; r++ {
				gr := g[r*cols : (r+1)*cols]
				if da != nil {
					f := ns.val[r]
					dr := da[r*cols : (r+1)*cols]
					if firstA {
						for j, x := range gr {
							dr[j] = 0 + x*f
						}
					} else {
						for j, x := range gr {
							dr[j] += x * f
						}
					}
				}
				if ds != nil {
					ar := na.val[r*cols : (r+1)*cols]
					var sum float64
					for j, x := range gr {
						sum += x * ar[j]
					}
					if firstS {
						ds[r] = 0 + sum
					} else {
						ds[r] += sum
					}
				}
			}
		})
	case OpSelectCols:
		if da := (Value{t, n.a}).Grad(); da != nil {
			cols := int(t.nodes[n.a].cols)
			w := int(n.cols)
			idx := n.idx
			par.For(int(n.rows), func(s, e int) {
				for r := s; r < e; r++ {
					gr := g[r*w : (r+1)*w]
					dr := da[r*cols:]
					for j, k := range idx {
						dr[k] += gr[j]
					}
				}
			})
		}
	case OpPlaceCols:
		if da := (Value{t, n.a}).Grad(); da != nil {
			c := int(n.cols)
			w := int(t.nodes[n.a].cols)
			idx := n.idx
			par.For(int(n.rows), func(s, e int) {
				for r := s; r < e; r++ {
					gr := g[r*c:]
					dr := da[r*w : (r+1)*w]
					for j, k := range idx {
						dr[j] += gr[k]
					}
				}
			})
		}
	case OpSelectRows:
		if da := (Value{t, n.a}).Grad(); da != nil {
			// Serial: repeated indices scatter into the same row, and the
			// gathered values are a single column in every caller.
			c := int(n.cols)
			for j, r := range n.idx {
				gr := g[j*c : (j+1)*c]
				dr := da[r*c : (r+1)*c]
				for i, x := range gr {
					dr[i] += x
				}
			}
		}
	case OpConcatCols:
		na, nb := &t.nodes[n.a], &t.nodes[n.b]
		ca, cb := int(na.cols), int(nb.cols)
		w := ca + cb
		da, firstA := t.gradOf(n.a)
		db, firstB := t.gradOf(n.b)
		par.For(int(n.rows), func(s, e int) {
			for r := s; r < e; r++ {
				if da != nil {
					addTo(da[r*ca:(r+1)*ca], g[r*w:r*w+ca], firstA)
				}
				if db != nil {
					addTo(db[r*cb:(r+1)*cb], g[r*w+ca:(r+1)*w], firstB)
				}
			}
		})
	case OpSumAll:
		if da, first := t.gradOf(n.a); da != nil {
			addConst(da, g[0], first)
		}
	case OpMeanAll:
		if da, first := t.gradOf(n.a); da != nil {
			addConst(da, g[0]/float64(len(da)), first)
		}
	case OpSumSq:
		if da, first := t.gradOf(n.a); da != nil {
			axpy(da, t.nodes[n.a].val, 2*g[0], first)
		}
	case OpCustom:
		if n.backward != nil {
			n.backward()
		}
	default:
		panic(fmt.Sprintf("ad: backprop for op %d not implemented", n.op))
	}
}

// unaryBack applies da += g ⊙ d(x,y) where d receives the input value x and
// output value y of the unary op.
func (t *Tape) unaryBack(n *node, d func(x, y float64) float64) {
	da, first := t.gradOf(n.a)
	if da == nil {
		return
	}
	av := t.nodes[n.a].val
	g, y := n.grad, n.val
	par.For(len(g), func(s, e int) {
		if first {
			for i := s; i < e; i++ {
				da[i] = 0 + g[i]*d(av[i], y[i])
			}
			return
		}
		for i := s; i < e; i++ {
			da[i] += g[i] * d(av[i], y[i])
		}
	})
}

// The helpers below each write a gradient over its whole length. With
// first set they are the buffer's first writer of the step and store 0 + x,
// the bits the add gave on a zeroed buffer; otherwise they add x.

// axpy computes dst += c * src.
func axpy(dst, src []float64, c float64, first bool) {
	par.For(len(dst), func(s, e int) {
		d, x := dst[s:e], src[s:e]
		if first {
			for i := range d {
				d[i] = 0 + c*x[i]
			}
			return
		}
		for i := range d {
			d[i] += c * x[i]
		}
	})
}

// mulAddTo computes dst += a ⊙ b, serially.
//
//torq:hotpath
func mulAddTo(dst, a, b []float64, first bool) {
	a, b = a[:len(dst)], b[:len(dst)]
	if first {
		for i := range dst {
			dst[i] = 0 + a[i]*b[i]
		}
		return
	}
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// addTo computes dst += src, serially.
func addTo(dst, src []float64, first bool) {
	src = src[:len(dst)]
	if first {
		for i, x := range src {
			dst[i] = 0 + x
		}
		return
	}
	for i, x := range src {
		dst[i] += x
	}
}

// addConst adds c to every element of dst.
func addConst(dst []float64, c float64, first bool) {
	par.For(len(dst), func(s, e int) {
		d := dst[s:e]
		if first {
			for i := range d {
				d[i] = 0 + c
			}
			return
		}
		for i := range d {
			d[i] += c
		}
	})
}
