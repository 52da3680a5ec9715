package ad

import (
	"fmt"

	"repro/internal/cpufeat"
	"repro/internal/par"
)

// Every GEMM of the tape is one gemm call: C = A·B or C += A·B over a
// rows×cols block of C with row stride cols, summing red terms per element.
// Term l of row r of A is a[r*aRow+l*aRed]; term l of B is B's row l, cols
// contiguous values at stride cols. The three layouts of a dense layer
// X(n×k)·W(k×m) differ only in the strides their call sites pass:
//
//	layout       C    rows × cols  red  aRow  aRed  B          mode
//	NN  X·W      n×m  n × m        k    k     1     W          store
//	NT  dC·Wᵀ    n×k  n × k        m    m     1     packed Wᵀ  fresh
//	TN  Xᵀ·dC    k×m  k × m        n    1     k     dC         acc
//
// The mode says where each element's sum starts and where it goes: acc
// starts from C's value, fresh from +0 and then adds the sum to C (NT's
// order), and store from +0 into C, which it never reads. The forward
// stores into a value buffer straight from the pool. A gradient's first
// writer of the step (tape.go) runs NT and TN as store too, which gives
// the bits the other modes give on a zeroed C: a sum from +0 is never −0,
// so adding it to +0 leaves it as it is.
//
// Every element of C sums its terms in ascending order, each term one
// rounded multiply followed by one rounded add, never a fused multiply-add.
// (gemmGo writes each product as float64(x*y), a conversion the Go spec
// forbids fusing, so neither arm64 nor amd64 at GOAMD64=v3 fuses it.) So
// the result is fixed by the shape and the mode alone: the same for any
// tiling, any par chunking and either kernel below, and equal to a plain
// triple loop bit for bit on finite inputs (up to the sign of a -0 in C
// that receives only zero terms).
//
// Three kernels share that contract. gemmGo computes 2×4 tiles of C in
// eight scalar accumulators with the reduction loop innermost, a 2×3 and
// then 2×1 tiles for the remainder columns, two rows at a time. On amd64
// the assembly micro-kernels (matmul_amd64.s) compute 4-row tiles instead:
// gemm4x8 4×8 tiles in YMM registers with AVX2, gemm4x16 4×16 tiles in ZMM
// registers with AVX-512F. Their lanes run across C's columns, each holding
// one element's accumulator, and every term is a broadcast, a per-lane
// VMULPD and a per-lane VADDPD, so a lane performs exactly gemmGo's
// operations in gemmGo's order. gemmRange gives gemm4x16, where the CPU has
// it, every full group of four rows across all columns (the last tile's
// missing columns are masked off), and gemmGo the last rows mod 4; with
// AVX2 alone it gives gemm4x8 the full 4×8 tiles and gemmGo the remainder
// rows and columns, so narrow layers (fewer than 8 columns of C) run gemmGo
// alone there. Every other architecture runs gemmGo alone, which is also the
// oracle the assembly is tested against.
//
// Every product is accumulated, zeros included: a NaN or ±Inf in either
// operand reaches C even where the other operand is exactly zero
// (0·Inf = NaN), so a non-finite weight or gradient surfaces on the same
// step instead of hiding behind a zero activation.

// gemmMode is where a gemm call's sums start and where they go (see above).
// The assembly kernels read it as an int.
type gemmMode int

const (
	gemmAcc   gemmMode = iota // C += sum, the sum starting from C
	gemmFresh                 // C = C + sum, the sum starting from +0
	gemmStore                 // C = sum from +0; C is never read
)

// hasAVX2 and hasAVX512 report whether the CPU can run gemm4x8 and
// gemm4x16; both are false off amd64.
var hasAVX2, hasAVX512 = cpufeat.AVX2, cpufeat.AVX512

// useSIMD selects the assembly micro-kernels, and useAVX512 gemm4x16 over
// gemm4x8 among them. Both are set once from the CPU's features; tests clear
// useSIMD to run the pure-Go path, and useAVX512 alone to run the AVX2 one.
var useSIMD, useAVX512 = hasAVX2, hasAVX512

// gemm computes A·B into C in the strided form and mode above, parallel
// over rows of C; each row costs cols·red multiply-adds.
func gemm(c, a, b []float64, rows, cols, red, aRow, aRed int, mode gemmMode) {
	par.ForGrain(rows, cols*red, func(s, e int) { gemmRange(c, a, b, cols, red, aRow, aRed, mode, s, e) })
}

// gemmRange is gemm over rows [s, e) of C. The reslicing before the
// assembly is its bounds check: it panics unless every element the kernel
// touches is in range.
//
//torq:hotpath
func gemmRange(c, a, b []float64, cols, red, aRow, aRed int, mode gemmMode, s, e int) {
	if red == 0 { // no terms, and A may be empty
		if mode == gemmAcc {
			return // C keeps its value
		}
		aRow = 0
	}
	c, a, rows := c[s*cols:], a[s*aRow:], e-s
	if useSIMD && rows >= 4 && red > 0 && (useAVX512 || cols >= 8) {
		r, w := rows&^3, cols&^7
		if useAVX512 {
			w = cols
		}
		ct, at, bt := c[:(r-1)*cols+w], a[:(r-1)*aRow+(red-1)*aRed+1], b[:(red-1)*cols+w]
		for i := 0; i < r; i += 4 {
			if useAVX512 {
				gemm4x16(ct[i*cols:], at[i*aRow:], bt, w, red, cols, aRow, aRed, mode)
			} else {
				gemm4x8(ct[i*cols:], at[i*aRow:], bt, w, red, cols, aRow, aRed, mode)
			}
		}
		if w < cols {
			gemmGo(c[w:], a, b[w:], r, cols-w, red, cols, aRow, aRed, mode)
		}
		c, a, rows = c[r*cols:], a[r*aRow:], rows-r
	}
	gemmGo(c, a, b, rows, cols, red, cols, aRow, aRed, mode)
}

// gemmGo is the pure-Go kernel over a rows×cols block of C with row stride
// ldc (also B's row stride), under the assembly kernels' contract; aRed ≥ 1
// when red > 0. It runs two rows of C at a time, and a last odd row as a pair
// with itself: both copies compute the same sums from the same inputs.
//
//torq:hotpath
func gemmGo(c, a, b []float64, rows, cols, red, ldc, aRow, aRed int, mode gemmMode) {
	ext := 0 // the span of a row's terms in A
	if red > 0 {
		ext = (red-1)*aRed + 1
	}
	for i := 0; i < rows; i += 2 {
		i1 := min(i+1, rows-1)
		gemmPair(c[i*ldc:i*ldc+cols], c[i1*ldc:i1*ldc+cols], a[i*aRow:i*aRow+ext], a[i1*aRow:i1*aRow+ext], b, ldc, aRed, mode)
	}
}

// gemmPair is gemmGo over two rows of C, c0 and c1, whose terms in A are a0
// and a1 at stride aRed. Slicing the two rows to one length and testing the
// term offset unsigned lets the compiler drop A's bounds checks, and keeping
// the tile loops in their own function keeps their offsets in registers.
//
//torq:hotpath
func gemmPair(c0, c1, a0, a1, b []float64, ldc, aRed int, mode gemmMode) {
	c1, a1 = c1[:len(c0)], a1[:len(a0)]
	j := 0
	for ; j+4 <= len(c0); j += 4 {
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		if mode == gemmAcc {
			c00, c01, c02, c03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
			c10, c11, c12, c13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
		}
		for ao, bo := 0, j; uint(ao) < uint(len(a0)); ao, bo = ao+aRed, bo+ldc {
			x0, x1 := a0[ao], a1[ao]
			bl := b[bo : bo+4 : bo+4]
			c00 += float64(x0 * bl[0])
			c01 += float64(x0 * bl[1])
			c02 += float64(x0 * bl[2])
			c03 += float64(x0 * bl[3])
			c10 += float64(x1 * bl[0])
			c11 += float64(x1 * bl[1])
			c12 += float64(x1 * bl[2])
			c13 += float64(x1 * bl[3])
		}
		if mode == gemmFresh {
			c00, c01, c02, c03 = c0[j]+c00, c0[j+1]+c01, c0[j+2]+c02, c0[j+3]+c03
			c10, c11, c12, c13 = c1[j]+c10, c1[j+1]+c11, c1[j+2]+c12, c1[j+3]+c13
		}
		c0[j], c0[j+1], c0[j+2], c0[j+3] = c00, c01, c02, c03
		c1[j], c1[j+1], c1[j+2], c1[j+3] = c10, c11, c12, c13
	}
	// A 2×3 tile loads A once for three columns: the whole of a 3-column
	// output layer.
	if j+3 <= len(c0) {
		var c00, c01, c02, c10, c11, c12 float64
		if mode == gemmAcc {
			c00, c01, c02 = c0[j], c0[j+1], c0[j+2]
			c10, c11, c12 = c1[j], c1[j+1], c1[j+2]
		}
		for ao, bo := 0, j; uint(ao) < uint(len(a0)); ao, bo = ao+aRed, bo+ldc {
			x0, x1 := a0[ao], a1[ao]
			bl := b[bo : bo+3 : bo+3]
			c00 += float64(x0 * bl[0])
			c01 += float64(x0 * bl[1])
			c02 += float64(x0 * bl[2])
			c10 += float64(x1 * bl[0])
			c11 += float64(x1 * bl[1])
			c12 += float64(x1 * bl[2])
		}
		if mode == gemmFresh {
			c00, c01, c02 = c0[j]+c00, c0[j+1]+c01, c0[j+2]+c02
			c10, c11, c12 = c1[j]+c10, c1[j+1]+c11, c1[j+2]+c12
		}
		c0[j], c0[j+1], c0[j+2] = c00, c01, c02
		c1[j], c1[j+1], c1[j+2] = c10, c11, c12
		j += 3
	}
	for ; j < len(c0); j++ {
		var c0j, c1j float64
		if mode == gemmAcc {
			c0j, c1j = c0[j], c1[j]
		}
		for ao, bo := 0, j; uint(ao) < uint(len(a0)); ao, bo = ao+aRed, bo+ldc {
			bv := b[bo]
			c0j += float64(a0[ao] * bv)
			c1j += float64(a1[ao] * bv)
		}
		if mode == gemmFresh {
			c0j, c1j = c0[j]+c0j, c1[j]+c1j
		}
		c0[j], c1[j] = c0j, c1j
	}
}

// ntPanel packs Bᵀ (m×k) of the k×m matrix b into *buf, growing it only when
// it is too small, so that NT reads B's columns as contiguous rows like the
// other layouts. The copy moves values without arithmetic, so it cannot
// change any sum.
func ntPanel(buf *[]float64, b []float64, m, k int) []float64 {
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

// MatMul returns a·b for a[n×k] and b[k×m]; both operands participate in
// gradient flow. b is typically a weight matrix leaf.
func (t *Tape) MatMul(a, b Value) Value {
	na, nb := &t.nodes[a.i], &t.nodes[b.i]
	if na.cols != nb.rows {
		panic(fmt.Sprintf("ad: MatMul %d×%d · %d×%d", na.rows, na.cols, nb.rows, nb.cols))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(b.i)
	n, k, m := int(na.rows), int(na.cols), int(nb.cols)
	v, node := t.newNode(OpMatMul, a.i, b.i, n, m, ng)
	gemm(node.val, na.val, nb.val, n, m, k, k, 1, gemmStore) // NN
	return v
}
