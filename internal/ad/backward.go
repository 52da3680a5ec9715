package ad

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Backward runs the reverse sweep from a scalar loss node, accumulating
// gradients into every node that requires them. It may be called once per
// tape build; leaf gradient buffers are zeroed at allocation, so parameter
// gradients read after Backward are exact (not accumulated across steps).
func (t *Tape) Backward(loss Value) {
	ln := &t.nodes[loss.i]
	if ln.rows != 1 || ln.cols != 1 {
		panic(fmt.Sprintf("ad: Backward on non-scalar %d×%d node", ln.rows, ln.cols))
	}
	if ln.grad == nil {
		return // loss independent of any differentiable input
	}
	ln.grad[0] = 1
	for i := int32(len(t.nodes)) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		switch {
		case n.grad == nil || n.op == OpLeaf || n.op == OpConst:
		case n.op == OpDual:
			if g := &t.groups[n.b]; g.runner == i {
				dualBackward(g)
			}
		case n.op == OpEmbed:
			if e := t.embeds[n.b]; e.runner == i {
				t.embedBackward(e)
			}
		default:
			t.backprop(n)
		}
	}
}

// gradOf returns the gradient buffer of node idx, or nil if it does not
// require gradients (accumulation into it is skipped).
func (t *Tape) gradOf(idx int32) []float64 {
	if idx < 0 {
		return nil
	}
	return t.nodes[idx].grad
}

func (t *Tape) backprop(n *node) {
	g := n.grad
	switch n.op {
	case OpAdd:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, 1)
		}
		if db := t.gradOf(n.b); db != nil {
			axpy(db, g, 1)
		}
	case OpSub:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, 1)
		}
		if db := t.gradOf(n.b); db != nil {
			axpy(db, g, -1)
		}
	case OpMul:
		av, bv := t.nodes[n.a].val, t.nodes[n.b].val
		if da := t.gradOf(n.a); da != nil {
			par.For(len(g), func(s, e int) {
				for i := s; i < e; i++ {
					da[i] += g[i] * bv[i]
				}
			})
		}
		if db := t.gradOf(n.b); db != nil {
			par.For(len(g), func(s, e int) {
				for i := s; i < e; i++ {
					db[i] += g[i] * av[i]
				}
			})
		}
	case OpDiv:
		av, bv := t.nodes[n.a].val, t.nodes[n.b].val
		if da := t.gradOf(n.a); da != nil {
			par.For(len(g), func(s, e int) {
				for i := s; i < e; i++ {
					da[i] += g[i] / bv[i]
				}
			})
		}
		if db := t.gradOf(n.b); db != nil {
			par.For(len(g), func(s, e int) {
				for i := s; i < e; i++ {
					db[i] -= g[i] * av[i] / (bv[i] * bv[i])
				}
			})
		}
	case OpScale:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, n.c)
		}
	case OpShift:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, 1)
		}
	case OpNeg:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, -1)
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
		if da := t.gradOf(n.a); da != nil {
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
		if da := t.gradOf(n.a); da != nil { // NT: dA += dC·Wᵀ
			gemm(da, g, ntPanel(&t.panel, nb.val, m, k), rows, k, m, m, 1, true)
		}
		if db := t.gradOf(n.b); db != nil { // TN: dW += Xᵀ·dC
			gemm(db, na.val, g, k, m, rows, 1, k, false)
		}
	case OpAddBias:
		if da := t.gradOf(n.a); da != nil {
			axpy(da, g, 1)
		}
		if db := t.gradOf(n.b); db != nil {
			cols := int(n.cols)
			for r := 0; r < int(n.rows); r++ {
				gr := g[r*cols : (r+1)*cols]
				for j, x := range gr {
					db[j] += x
				}
			}
		}
	case OpRowScale:
		na, ns := &t.nodes[n.a], &t.nodes[n.b]
		cols := int(n.cols)
		da, ds := t.gradOf(n.a), t.gradOf(n.b)
		par.For(int(n.rows), func(s, e int) {
			for r := s; r < e; r++ {
				gr := g[r*cols : (r+1)*cols]
				if da != nil {
					f := ns.val[r]
					dr := da[r*cols : (r+1)*cols]
					for j, x := range gr {
						dr[j] += x * f
					}
				}
				if ds != nil {
					ar := na.val[r*cols : (r+1)*cols]
					var sum float64
					for j, x := range gr {
						sum += x * ar[j]
					}
					ds[r] += sum
				}
			}
		})
	case OpSelectCols:
		if da := t.gradOf(n.a); da != nil {
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
		if da := t.gradOf(n.a); da != nil {
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
		if da := t.gradOf(n.a); da != nil {
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
		da, db := t.gradOf(n.a), t.gradOf(n.b)
		par.For(int(n.rows), func(s, e int) {
			for r := s; r < e; r++ {
				if da != nil {
					gr := g[r*w : r*w+ca]
					dr := da[r*ca : (r+1)*ca]
					for i, x := range gr {
						dr[i] += x
					}
				}
				if db != nil {
					gr := g[r*w+ca : (r+1)*w]
					dr := db[r*cb : (r+1)*cb]
					for i, x := range gr {
						dr[i] += x
					}
				}
			}
		})
	case OpSumAll:
		if da := t.gradOf(n.a); da != nil {
			g0 := g[0]
			par.For(len(da), func(s, e int) {
				for i := s; i < e; i++ {
					da[i] += g0
				}
			})
		}
	case OpMeanAll:
		if da := t.gradOf(n.a); da != nil {
			g0 := g[0] / float64(len(da))
			par.For(len(da), func(s, e int) {
				for i := s; i < e; i++ {
					da[i] += g0
				}
			})
		}
	case OpSumSq:
		if da := t.gradOf(n.a); da != nil {
			av := t.nodes[n.a].val
			g0 := 2 * g[0]
			par.For(len(da), func(s, e int) {
				for i := s; i < e; i++ {
					da[i] += g0 * av[i]
				}
			})
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
	da := t.gradOf(n.a)
	if da == nil {
		return
	}
	av := t.nodes[n.a].val
	g, y := n.grad, n.val
	par.For(len(g), func(s, e int) {
		for i := s; i < e; i++ {
			da[i] += g[i] * d(av[i], y[i])
		}
	})
}

// axpy computes dst += c * src.
func axpy(dst, src []float64, c float64) {
	par.For(len(dst), func(s, e int) {
		for i := s; i < e; i++ {
			dst[i] += c * src[i]
		}
	})
}
