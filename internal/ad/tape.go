// Package ad implements the reverse-mode automatic differentiation substrate
// that replaces PyTorch's autograd in this reproduction. It is a
// define-by-run tape over batched, row-major float64 matrices: every
// operation eagerly computes its value when the graph is built, and a single
// reverse sweep (Backward) accumulates exact gradients into every node that
// requires them.
//
// The tape is rebuilt every training step. To keep the allocator out of the
// hot loop, buffers are recycled through a size-classed free list that
// persists across Reset calls — the CPU analogue of the arena reuse that
// made the paper's TorQ simulator fit an 87³ collocation grid in GPU memory.
//
// # Invariants
//
// The GEMM kernels behind MatMul and its backward (matmul.go) reduce every
// element of their output in one order fixed by the shape alone, so values
// and gradients are bit-identical for any par worker count.
package ad

import "fmt"

// Op enumerates the primitive operations the tape understands. Anything not
// expressible as a composition of these (the parametrized quantum circuit)
// enters the graph through a Custom node carrying its own backward closure.
type Op uint8

const (
	OpLeaf Op = iota // parameter or input; value storage owned by the caller
	OpConst
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpScale // value * scalar constant
	OpShift // value + scalar constant
	OpNeg
	OpSin
	OpCos
	OpTanh
	OpExp
	OpSquare
	OpSqrt
	OpAsin
	OpAcos
	OpClamp    // clamp to [-c, c]
	OpMatMul   // [n×k]·[k×m], both differentiable
	OpMatMulC  // [n×k]·const[k×m]
	OpAddBias  // [n×m] + bias[1×m], broadcast over rows
	OpRowScale // [n×c] ⊙ s[n×1], broadcast over columns
	OpScaleVar // [n×c] * s[1×1]
	OpSelectCols
	OpPlaceCols
	OpSelectRows
	OpConcatCols
	OpSumAll
	OpMeanAll
	OpSumSq // Σ x² → [1×1]
	OpCustom
)

// node is one tape entry. Buffers val and grad are len rows*cols; grad is nil
// for nodes that do not require gradients.
type node struct {
	op         Op
	a, b       int32
	rows, cols int32
	c          float64   // scalar payload (Scale, Shift, Clamp)
	idx        []int     // index payload (Select/Place)
	cm         []float64 // constant-matrix payload (MatMulC)
	cmCols     int32
	val        []float64
	grad       []float64
	backward   func() // Custom nodes only
}

// Value is a handle to a tape node. The zero Value is invalid; use Valid.
type Value struct {
	t *Tape
	i int32
}

// Valid reports whether v refers to a tape node.
func (v Value) Valid() bool { return v.t != nil }

// Rows returns the row count of the node's matrix.
func (v Value) Rows() int { return int(v.t.nodes[v.i].rows) }

// Cols returns the column count of the node's matrix.
func (v Value) Cols() int { return int(v.t.nodes[v.i].cols) }

// Data returns the node's value buffer (live view, not a copy).
func (v Value) Data() []float64 { return v.t.nodes[v.i].val }

// Grad returns the node's gradient buffer after Backward, or nil if the node
// does not require gradients.
func (v Value) Grad() []float64 { return v.t.nodes[v.i].grad }

// NeedsGrad reports whether gradients flow into this node.
func (v Value) NeedsGrad() bool { return v.t.nodes[v.i].grad != nil }

// Scalar returns the single element of a 1×1 node.
func (v Value) Scalar() float64 {
	n := &v.t.nodes[v.i]
	if n.rows != 1 || n.cols != 1 {
		panic(fmt.Sprintf("ad: Scalar on %d×%d node", n.rows, n.cols))
	}
	return n.val[0]
}

// Tape is the gradient tape. It is not safe for concurrent graph building;
// the kernels inside individual operations parallelize internally.
type Tape struct {
	nodes   []node
	pool    pool
	onReset []func()
}

// OnReset registers fn to run at the start of the next Reset, after which it
// is forgotten. Owners of Custom nodes use it to reclaim resources their
// backward closure would normally release — a tape that is reset without
// Backward ever running (an inference-only probe on a trainable graph, an
// abandoned step) otherwise strands them.
func (t *Tape) OnReset(fn func()) { t.onReset = append(t.onReset, fn) }

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Len reports the number of nodes currently on the tape.
func (t *Tape) Len() int { return len(t.nodes) }

// Reset clears the tape for the next step, recycling all buffers it owns.
// Leaf and Const value buffers are owned (and often retained across steps)
// by the caller and must never enter the pool: recycling them would zero
// live caller data on the next allocation.
func (t *Tape) Reset() {
	for _, fn := range t.onReset {
		fn()
	}
	t.onReset = t.onReset[:0]
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.op != OpLeaf && n.op != OpConst && n.val != nil {
			t.pool.put(n.val)
		}
		if n.grad != nil {
			t.pool.put(n.grad)
		}
		n.val, n.grad, n.idx, n.cm, n.backward = nil, nil, nil, nil, nil
	}
	t.nodes = t.nodes[:0]
}

// alloc returns a zeroed buffer of length n from the pool.
func (t *Tape) alloc(n int) []float64 { return t.pool.get(n) }

// newNode appends a node, allocating its value buffer (len rows*cols) and,
// when needsGrad is set, a zeroed gradient buffer.
func (t *Tape) newNode(op Op, a, b int32, rows, cols int, needsGrad bool) (Value, *node) {
	t.nodes = append(t.nodes, node{op: op, a: a, b: b, rows: int32(rows), cols: int32(cols)})
	i := int32(len(t.nodes) - 1)
	n := &t.nodes[i]
	n.val = t.alloc(rows * cols)
	if needsGrad {
		n.grad = t.alloc(rows * cols)
	}
	return Value{t, i}, n
}

func (t *Tape) needsGrad(idx int32) bool {
	return idx >= 0 && t.nodes[idx].grad != nil
}

// Leaf registers an externally owned buffer (parameter or input batch) as a
// tape node. data must have length rows*cols and remains aliased: parameter
// updates mutate it in place between steps. When needsGrad is set, Backward
// accumulates into the node's gradient buffer, readable via Value.Grad.
func (t *Tape) Leaf(rows, cols int, data []float64, needsGrad bool) Value {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("ad: Leaf buffer length %d ≠ %d×%d", len(data), rows, cols))
	}
	t.nodes = append(t.nodes, node{op: OpLeaf, a: -1, b: -1, rows: int32(rows), cols: int32(cols), val: data})
	i := int32(len(t.nodes) - 1)
	if needsGrad {
		t.nodes[i].grad = t.alloc(rows * cols)
	}
	return Value{t, i}
}

// Const registers a constant matrix. The data is aliased, never written.
func (t *Tape) Const(rows, cols int, data []float64) Value {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("ad: Const buffer length %d ≠ %d×%d", len(data), rows, cols))
	}
	t.nodes = append(t.nodes, node{op: OpConst, a: -1, b: -1, rows: int32(rows), cols: int32(cols), val: data})
	return Value{t, int32(len(t.nodes) - 1)}
}

// ConstScalar registers a 1×1 constant.
func (t *Tape) ConstScalar(c float64) Value {
	return t.Const(1, 1, []float64{c})
}

func sameShape(a, b *node) bool { return a.rows == b.rows && a.cols == b.cols }

// pool is a size-classed free list. Buffers are grouped by exact length;
// training steps rebuild an identical graph, so hit rates are ~100% after
// the first step.
type pool struct {
	byLen map[int][][]float64
}

func (p *pool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	if p.byLen != nil {
		if bufs := p.byLen[n]; len(bufs) > 0 {
			buf := bufs[len(bufs)-1]
			p.byLen[n] = bufs[:len(bufs)-1]
			for i := range buf {
				buf[i] = 0
			}
			return buf
		}
	}
	return make([]float64, n)
}

func (p *pool) put(buf []float64) {
	if buf == nil {
		return
	}
	if p.byLen == nil {
		p.byLen = make(map[int][][]float64)
	}
	p.byLen[len(buf)] = append(p.byLen[len(buf)], buf)
}
