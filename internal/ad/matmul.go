package ad

import (
	"fmt"

	"repro/internal/par"
)

// The three GEMM kernels below are register-tiled: each computes a 2×4
// block of C in eight scalar accumulators with the reduction loop innermost,
// and handles the remainder rows and columns with narrower tiles of the
// same loop. Every element of C still accumulates its terms in one fixed
// order that depends on the shape alone — reduction index ascending, mmAcc
// and mmTNAcc starting from C's existing value, mmNTAcc summing into a zero
// local that is then added to C — so the result is the same for any tiling
// and any par chunking, and equals a plain triple loop bit for bit on finite
// inputs (up to the sign of a -0 in C that receives only zero terms).
//
// Every product is accumulated, zeros included: a NaN or ±Inf in either
// operand reaches C even where the other operand is exactly zero
// (0·Inf = NaN), so a non-finite weight or gradient surfaces on the same
// step instead of hiding behind a zero activation.
//
// Each kernel is a thin par.ForGrain wrapper around a serial range function
// that owns a disjoint block of C's rows.

// mmAcc computes C += A(n×k)·B(k×m) in row-major order, parallel over rows
// of A.
func mmAcc(c, a, b []float64, n, k, m int) {
	par.ForGrain(n, k*m, func(s, e int) { mmAccRange(c, a, b, k, m, s, e) })
}

// mmAccRange is mmAcc over rows [s, e) of A and C.
//
//torq:hotpath
func mmAccRange(c, a, b []float64, k, m, s, e int) {
	i := s
	for ; i+2 <= e; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
		c0 := c[i*m : (i+1)*m]
		c1 := c[(i+1)*m : (i+2)*m][:len(c0)]
		j := 0
		for ; j+4 <= m; j += 4 {
			c00, c01, c02, c03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			c10, c11, c12, c13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			o := j
			for l, x0 := range a0 {
				x1 := a1[l]
				bl := b[o : o+4 : o+4]
				c00 += x0 * bl[0]
				c01 += x0 * bl[1]
				c02 += x0 * bl[2]
				c03 += x0 * bl[3]
				c10 += x1 * bl[0]
				c11 += x1 * bl[1]
				c12 += x1 * bl[2]
				c13 += x1 * bl[3]
				o += m
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = c00, c01, c02, c03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = c10, c11, c12, c13
		}
		for ; j < m; j++ {
			c0j, c1j := c0[j], c1[j]
			o := j
			for l, x0 := range a0 {
				bv := b[o]
				c0j += x0 * bv
				c1j += a1[l] * bv
				o += m
			}
			c0[j], c1[j] = c0j, c1j
		}
	}
	if i < e {
		a0 := a[i*k : (i+1)*k]
		c0 := c[i*m : (i+1)*m]
		for j := range c0 {
			cj := c0[j]
			o := j
			for _, x0 := range a0 {
				cj += x0 * b[o]
				o += m
			}
			c0[j] = cj
		}
	}
}

// mmNTAcc computes C += A(n×m)·Bᵀ where B is k×m, giving C of shape n×k.
// This is the dA = dC·Wᵀ step of the MatMul backward, in dot-product form,
// parallel over rows of A.
func mmNTAcc(c, a, b []float64, n, m, k int) {
	par.ForGrain(n, k*m, func(s, e int) { mmNTAccRange(c, a, b, m, k, s, e) })
}

// mmNTAccRange is mmNTAcc over rows [s, e) of A and C.
//
//torq:hotpath
func mmNTAccRange(c, a, b []float64, m, k, s, e int) {
	i := s
	for ; i+2 <= e; i += 2 {
		a0 := a[i*m : (i+1)*m]
		a1 := a[(i+1)*m : (i+2)*m][:len(a0)]
		c0 := c[i*k : (i+1)*k]
		c1 := c[(i+1)*k : (i+2)*k][:len(c0)]
		j := 0
		for ; j+4 <= k; j += 4 {
			b0 := b[j*m : (j+1)*m][:len(a0)]
			b1 := b[(j+1)*m : (j+2)*m][:len(a0)]
			b2 := b[(j+2)*m : (j+3)*m][:len(a0)]
			b3 := b[(j+3)*m : (j+4)*m][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for l, x0 := range a0 {
				x1 := a1[l]
				y0, y1, y2, y3 := b0[l], b1[l], b2[l], b3[l]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			c0[j] += s00
			c0[j+1] += s01
			c0[j+2] += s02
			c0[j+3] += s03
			c1[j] += s10
			c1[j+1] += s11
			c1[j+2] += s12
			c1[j+3] += s13
		}
		for ; j < k; j++ {
			bj := b[j*m : (j+1)*m][:len(a0)]
			var s0, s1 float64
			for l, y := range bj {
				s0 += a0[l] * y
				s1 += a1[l] * y
			}
			c0[j] += s0
			c1[j] += s1
		}
	}
	if i < e {
		a0 := a[i*m : (i+1)*m]
		c0 := c[i*k : (i+1)*k]
		for j := range c0 {
			bj := b[j*m : (j+1)*m][:len(a0)]
			var s0 float64
			for l, x0 := range a0 {
				s0 += x0 * bj[l]
			}
			c0[j] += s0
		}
	}
}

// mmTNAcc computes C += Aᵀ·B where A is n×k and B is n×m, giving C of shape
// k×m. This is the dW = Xᵀ·dC step. Parallelizing over rows of A would race
// on C, so the loop splits over the k dimension instead; each item (a row of
// C) costs n·m multiply-adds.
func mmTNAcc(c, a, b []float64, n, k, m int) {
	par.ForGrain(k, n*m, func(s, e int) { mmTNAccRange(c, a, b, n, k, m, s, e) })
}

// mmTNAccRange is mmTNAcc over rows [s, e) of C (columns of A).
//
//torq:hotpath
func mmTNAccRange(c, a, b []float64, n, k, m, s, e int) {
	l := s
	for ; l+2 <= e; l += 2 {
		c0 := c[l*m : (l+1)*m]
		c1 := c[(l+1)*m : (l+2)*m][:len(c0)]
		j := 0
		for ; j+4 <= m; j += 4 {
			c00, c01, c02, c03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			c10, c11, c12, c13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			ao, bo := l, j
			for i := 0; i < n; i++ {
				ai := a[ao : ao+2 : ao+2]
				bi := b[bo : bo+4 : bo+4]
				x0, x1 := ai[0], ai[1]
				c00 += x0 * bi[0]
				c01 += x0 * bi[1]
				c02 += x0 * bi[2]
				c03 += x0 * bi[3]
				c10 += x1 * bi[0]
				c11 += x1 * bi[1]
				c12 += x1 * bi[2]
				c13 += x1 * bi[3]
				ao += k
				bo += m
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = c00, c01, c02, c03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = c10, c11, c12, c13
		}
		for ; j < m; j++ {
			c0j, c1j := c0[j], c1[j]
			ao, bo := l, j
			for i := 0; i < n; i++ {
				ai := a[ao : ao+2 : ao+2]
				bv := b[bo]
				c0j += ai[0] * bv
				c1j += ai[1] * bv
				ao += k
				bo += m
			}
			c0[j], c1[j] = c0j, c1j
		}
	}
	if l < e {
		c0 := c[l*m : (l+1)*m]
		for j := range c0 {
			cj := c0[j]
			ao, bo := l, j
			for i := 0; i < n; i++ {
				cj += a[ao] * b[bo]
				ao += k
				bo += m
			}
			c0[j] = cj
		}
	}
}

// MatMul returns a·b for a[n×k] and b[k×m]; both operands participate in
// gradient flow. b is typically a weight matrix leaf.
func (t *Tape) MatMul(a, b Value) Value {
	na, nb := &t.nodes[a.i], &t.nodes[b.i]
	if na.cols != nb.rows {
		panic(fmt.Sprintf("ad: MatMul %d×%d · %d×%d", na.rows, na.cols, nb.rows, nb.cols))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(b.i)
	v, n := t.newNode(OpMatMul, a.i, b.i, int(na.rows), int(nb.cols), ng)
	mmAcc(n.val, na.val, nb.val, int(na.rows), int(na.cols), int(nb.cols))
	return v
}

// MatMulC returns a·M for a constant matrix M (k×m, row-major). The constant
// never receives gradients; only dA = dC·Mᵀ flows back.
func (t *Tape) MatMulC(a Value, m []float64, mCols int) Value {
	na := &t.nodes[a.i]
	k := int(na.cols)
	if len(m) != k*mCols {
		panic(fmt.Sprintf("ad: MatMulC const %d ≠ %d×%d", len(m), k, mCols))
	}
	v, n := t.newNode(OpMatMulC, a.i, -1, int(na.rows), mCols, t.needsGrad(a.i))
	n.cm = m
	n.cmCols = int32(mCols)
	mmAcc(n.val, na.val, m, int(na.rows), k, mCols)
	return v
}
