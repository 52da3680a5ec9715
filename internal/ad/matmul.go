package ad

import (
	"fmt"

	"repro/internal/cpufeat"
	"repro/internal/par"
)

// The three GEMM kernels below compute every element of C in one order
// fixed by the shape alone: reduction index ascending, mmAcc and mmTNAcc
// starting from C's existing value, mmNTAcc summing into a zero local that is
// then added to C. Each term is one rounded multiply followed by one rounded
// add, never a fused multiply-add. So the result is the same for any tiling,
// any par chunking and either kernel family below, and equals a plain triple
// loop bit for bit on finite inputs (up to the sign of a -0 in C that
// receives only zero terms).
//
// There are two kernel families. The pure-Go range functions compute 2×4
// tiles of C in eight scalar accumulators with the reduction loop innermost
// and narrower tiles for the remainder rows and columns. On amd64 with AVX2,
// an assembly micro-kernel (matmul_amd64.s) computes 4×8 tiles instead: its
// lanes run across C's columns, each holding one element's accumulator, and
// every reduction step is a broadcast, a per-lane VMULPD and a per-lane
// VADDPD. A lane therefore performs exactly the scalar code's operations in
// the scalar code's order. The assembly covers the full tiles of a range;
// the remainder rows and columns, narrow layers (fewer than 8 output
// columns) and every other architecture take the pure-Go path, which is
// also the oracle the assembly is tested against.
//
// Every product is accumulated, zeros included: a NaN or ±Inf in either
// operand reaches C even where the other operand is exactly zero
// (0·Inf = NaN), so a non-finite weight or gradient surfaces on the same
// step instead of hiding behind a zero activation.
//
// Each kernel is a thin par.ForGrain wrapper around a serial range function
// that owns a disjoint block of C's rows.

// hasAVX2 reports whether the CPU can run the assembly micro-kernel; it is
// false off amd64.
var hasAVX2 = cpufeat.AVX2

// useSIMD selects the assembly micro-kernels for full 4×8 tiles. It is set
// once from the CPU's features; tests clear it to run the pure-Go path.
var useSIMD = hasAVX2

// mmAcc computes C += A(n×k)·B(k×m) in row-major order, parallel over rows
// of A.
func mmAcc(c, a, b []float64, n, k, m int) {
	par.ForGrain(n, k*m, func(s, e int) { mmAccRange(c, a, b, k, m, s, e) })
}

// mmAccRange is mmAcc over rows [s, e) of A and C.
//
//torq:hotpath
func mmAccRange(c, a, b []float64, k, m, s, e int) {
	if useSIMD && m >= 8 && e-s >= 4 && k > 0 {
		r, w := s+(e-s)&^3, m&^7
		simdTiles(c[s*m:], a[s*k:], b, r-s, w, k, m, k, 1, false)
		mmAccGo(c, a, b, k, m, s, r, w)
		s = r
	}
	mmAccGo(c, a, b, k, m, s, e, 0)
}

// mmAccGo is the pure-Go mmAcc over rows [s, e) and columns [j0, m) of C.
//
//torq:hotpath
func mmAccGo(c, a, b []float64, k, m, s, e, j0 int) {
	i := s
	for ; i+2 <= e; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
		c0 := c[i*m : (i+1)*m]
		c1 := c[(i+1)*m : (i+2)*m][:len(c0)]
		j := j0
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
		for j := j0; j < m; j++ {
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
// parallel over rows of A. panel is the caller's reusable buffer for the
// packed Bᵀ the SIMD kernel reads.
func mmNTAcc(c, a, b []float64, panel *[]float64, n, m, k int) {
	bt := ntPanel(panel, b, n, m, k)
	par.ForGrain(n, k*m, func(s, e int) { mmNTAccRange(c, a, b, bt, m, k, s, e) })
}

// ntPanel packs Bᵀ (m×k) of the k×m matrix b into *buf, growing it only when
// it is too small, so the SIMD kernel can read B's columns as contiguous
// rows. The copy moves values without arithmetic, so it cannot change any
// sum. ntPanel returns nil, selecting the pure-Go path, when the SIMD path
// does not apply: no AVX2, fewer than 8 output columns or 4 rows, or no
// terms to sum.
func ntPanel(buf *[]float64, b []float64, n, m, k int) []float64 {
	if !useSIMD || k < 8 || n < 4 || m == 0 {
		return nil
	}
	if cap(*buf) < k*m {
		*buf = make([]float64, k*m)
	}
	bt := (*buf)[:k*m]
	for j := 0; j < k; j++ {
		for l, v := range b[j*m : (j+1)*m] {
			bt[l*k+j] = v
		}
	}
	return bt
}

// mmNTAccRange is mmNTAcc over rows [s, e) of A and C. bt is ntPanel's
// packed Bᵀ, or nil for the pure-Go path.
//
//torq:hotpath
func mmNTAccRange(c, a, b, bt []float64, m, k, s, e int) {
	if bt != nil && e-s >= 4 {
		r, w := s+(e-s)&^3, k&^7
		simdTiles(c[s*k:], a[s*m:], bt, r-s, w, m, k, m, 1, true)
		mmNTAccGo(c, a, b, m, k, s, r, w)
		s = r
	}
	mmNTAccGo(c, a, b, m, k, s, e, 0)
}

// mmNTAccGo is the pure-Go mmNTAcc over rows [s, e) and columns [j0, k) of
// C.
//
//torq:hotpath
func mmNTAccGo(c, a, b []float64, m, k, s, e, j0 int) {
	i := s
	for ; i+2 <= e; i += 2 {
		a0 := a[i*m : (i+1)*m]
		a1 := a[(i+1)*m : (i+2)*m][:len(a0)]
		c0 := c[i*k : (i+1)*k]
		c1 := c[(i+1)*k : (i+2)*k][:len(c0)]
		j := j0
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
		for j := j0; j < k; j++ {
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
	if useSIMD && m >= 8 && e-s >= 4 && n > 0 {
		r, w := s+(e-s)&^3, m&^7
		simdTiles(c[s*m:], a[s:], b, r-s, w, n, m, 1, k, false)
		mmTNAccGo(c, a, b, n, k, m, s, r, w)
		s = r
	}
	mmTNAccGo(c, a, b, n, k, m, s, e, 0)
}

// mmTNAccGo is the pure-Go mmTNAcc over rows [s, e) and columns [j0, m) of
// C.
//
//torq:hotpath
func mmTNAccGo(c, a, b []float64, n, k, m, s, e, j0 int) {
	l := s
	for ; l+2 <= e; l += 2 {
		c0 := c[l*m : (l+1)*m]
		c1 := c[(l+1)*m : (l+2)*m][:len(c0)]
		j := j0
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
		for j := j0; j < m; j++ {
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

// simdTiles runs the assembly micro-kernel over a rows×cols block of C with
// row stride ldc, rows a multiple of 4 and cols a multiple of 8, summing red
// ≥ 1 terms per element. Term l of row r of A is a[r*aRow+l*aRed]; term l of
// B is b's row l, stride ldc. fresh sums each tile into zeroed accumulators
// that are then added to C, mmNTAcc's order; otherwise the accumulators
// start from C. The reslicing below is the assembly's bounds check: it
// panics unless every element the kernel touches is in range.
//
//torq:hotpath
func simdTiles(c, a, b []float64, rows, cols, red, ldc, aRow, aRed int, fresh bool) {
	c = c[:(rows-1)*ldc+cols]
	a = a[:(rows-1)*aRow+(red-1)*aRed+1]
	b = b[:(red-1)*ldc+cols]
	for i := 0; i < rows; i += 4 {
		gemm4x8(c[i*ldc:], a[i*aRow:], b, cols, red, ldc, aRow, aRed, fresh)
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
	v, n := t.newAccNode(OpMatMul, a.i, b.i, int(na.rows), int(nb.cols), ng)
	mmAcc(n.val, na.val, nb.val, int(na.rows), int(na.cols), int(nb.cols))
	return v
}
