package ad

import (
	"fmt"

	"repro/internal/par"
)

// SelectCols gathers columns idx from a[n×c], returning [n×len(idx)].
// Indices may repeat; the backward pass scatter-adds per row, which is safe
// because parallelism splits over rows.
func (t *Tape) SelectCols(a Value, idx []int) Value {
	na := &t.nodes[a.i]
	for _, j := range idx {
		if j < 0 || j >= int(na.cols) {
			panic(fmt.Sprintf("ad: SelectCols index %d out of %d", j, na.cols))
		}
	}
	v, n := t.newNode(OpSelectCols, a.i, -1, int(na.rows), len(idx), t.needsGrad(a.i))
	n.idx = idx
	av, out := na.val, n.val
	cols, w := int(na.cols), len(idx)
	par.For(int(na.rows), func(s, e int) {
		for r := s; r < e; r++ {
			src := av[r*cols:]
			dst := out[r*w : (r+1)*w]
			for j, k := range idx {
				dst[j] = src[k]
			}
		}
	})
	return v
}

// Col extracts a single column as [n×1].
func (t *Tape) Col(a Value, j int) Value { return t.SelectCols(a, []int{j}) }

// PlaceCols scatters a[n×len(idx)] into a zero matrix of width c, placing
// column j of a at column idx[j]. Indices must be distinct.
func (t *Tape) PlaceCols(a Value, idx []int, c int) Value {
	na := &t.nodes[a.i]
	if len(idx) != int(na.cols) {
		panic("ad: PlaceCols index count mismatch")
	}
	seen := make(map[int]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= c || seen[j] {
			panic(fmt.Sprintf("ad: PlaceCols bad index %d (width %d)", j, c))
		}
		seen[j] = true
	}
	v, n := t.newAccNode(OpPlaceCols, a.i, -1, int(na.rows), c, t.needsGrad(a.i))
	n.idx = idx
	av, out := na.val, n.val
	w := len(idx)
	par.For(int(na.rows), func(s, e int) {
		for r := s; r < e; r++ {
			src := av[r*w : (r+1)*w]
			dst := out[r*c:]
			for j, k := range idx {
				dst[k] = src[j]
			}
		}
	})
	return v
}

// SelectRows gathers rows idx from a, returning [len(idx)×c]. Indices may
// repeat: the backward scatter-adds serially in index order.
func (t *Tape) SelectRows(a Value, idx []int) Value {
	na := &t.nodes[a.i]
	for _, r := range idx {
		if r < 0 || r >= int(na.rows) {
			panic(fmt.Sprintf("ad: SelectRows index %d out of %d", r, na.rows))
		}
	}
	v, n := t.newNode(OpSelectRows, a.i, -1, len(idx), int(na.cols), t.needsGrad(a.i))
	n.idx = idx
	av, out := na.val, n.val
	c := int(na.cols)
	par.For(len(idx), func(s, e int) {
		for j := s; j < e; j++ {
			copy(out[j*c:(j+1)*c], av[idx[j]*c:(idx[j]+1)*c])
		}
	})
	return v
}

// ConcatCols returns [a | b] for matrices with equal row counts.
func (t *Tape) ConcatCols(a, b Value) Value {
	na, nb := &t.nodes[a.i], &t.nodes[b.i]
	if na.rows != nb.rows {
		panic(fmt.Sprintf("ad: ConcatCols rows %d vs %d", na.rows, nb.rows))
	}
	ng := t.needsGrad(a.i) || t.needsGrad(b.i)
	ca, cb := int(na.cols), int(nb.cols)
	v, n := t.newNode(OpConcatCols, a.i, b.i, int(na.rows), ca+cb, ng)
	av, bv, out := na.val, nb.val, n.val
	w := ca + cb
	par.For(int(na.rows), func(s, e int) {
		for r := s; r < e; r++ {
			copy(out[r*w:r*w+ca], av[r*ca:(r+1)*ca])
			copy(out[r*w+ca:(r+1)*w], bv[r*cb:(r+1)*cb])
		}
	})
	return v
}
