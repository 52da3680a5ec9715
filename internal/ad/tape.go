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
// element of their output in one order fixed by the shape alone, with a
// separately rounded multiply and add per term. So values and gradients are
// bit-identical for any par worker count, and whether the AVX2 assembly or
// the pure-Go kernels ran.
//
// Tanh, and the fused tanh group below, compute every element with
// tanhSlice (tanh.go), which returns math.Tanh's bits, NaN payloads and
// signed zeros included. On amd64 CPUs with AVX2 and FMA a 4-lane assembly
// kernel takes whole groups of four; it fuses multiply-adds exactly where
// Go's amd64 math.Exp does, which is only on CPUs with AVX and FMA. So a
// tanh value is the same for any chunking, worker count or kernel on one
// host, and, like math.Tanh's, may differ on a host without FMA.
//
// A fused dual group (Dual in fused.go) replaces the chain of
// elementwise nodes that forward-mode tangents used to need — f(a), f′(a)
// and one product f′(a)⊙aₖ per tangent — with one value node and one node
// per tangent. Its single backward replays, element by element, the exact
// rounded operations the chain's reverse sweep performed, in the same
// order: f′'s gradient sums gₖ·aₖ from +0 for the last tangent first, a
// constant shift adds as 0+x and a negation as 0−x, and every term lands in
// a's gradient in the order the chain's nodes would have added it. So a
// group's values and gradients equal the chain's bit for bit, up to which
// NaN results where two NaNs meet, a choice Go leaves to the compiler.
//
// The input-embedding op (FourierEmbed in embed.go) forms each point's
// outputs from per-distinct-value tables and that point's coordinate bits
// alone, and its backward sums per-point partials in point order. So its
// values and dL/dT are bit-identical however the batch is composed or
// ordered, and for any par worker count.
//
// No buffer is zeroed when the pool hands it out, except PlaceCols' value
// buffer, whose scatter writes only its placed columns. A value buffer
// holds whatever an earlier step left until its kernel writes every element
// of it; MatMul's GEMM stores into C without reading it. A gradient buffer
// is written first-writer style: each node records whether its gradient has
// been written this step, and the first writer that covers the whole buffer
// stores 0 + x where later writers add x, the bits that adding x to a zeroed
// buffer gives: a −0 term lands as +0. A gradient is zeroed on first use
// instead when its writer covers only part of it (SelectRows, SelectCols,
// PlaceCols, Clamp), when Value.Grad hands it out (a Custom op's backward
// adds into its inputs' gradients through it), and when no consumer wrote
// it: Backward zeroes it before the node's own backprop, so zero terms
// still reach the node's inputs.
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
	OpAddBias  // [n×m] + bias[1×m], broadcast over rows
	OpRowScale // [n×c] ⊙ s[n×1], broadcast over columns
	OpSelectCols
	OpPlaceCols
	OpSelectRows
	OpConcatCols
	OpSumAll
	OpMeanAll
	OpSumSq // Σ x² → [1×1]
	OpCustom
	OpDual  // member of a fused dual group; b indexes Tape.groups
	OpEmbed // output of an input-embedding op; b indexes Tape.embeds
)

// node is one tape entry. Buffers val and grad are len rows*cols; grad is nil
// for nodes that do not require gradients.
type node struct {
	op         Op
	a, b       int32
	rows, cols int32
	written    bool    // grad holds this step's gradient (first-writer rule)
	c          float64 // scalar payload (Scale, Shift, Clamp)
	idx        []int   // index payload (Select/Place)
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

// Grad returns the node's gradient buffer, or nil if the node does not
// require gradients. After Backward it holds the gradient. Called earlier
// (a Custom backward adding into an input's gradient, or a layer keeping
// the buffer for one), it zeroes the buffer if nothing has written it yet
// this step, so callers may add into it.
func (v Value) Grad() []float64 {
	n := &v.t.nodes[v.i]
	n.settle()
	return n.grad
}

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
	panel   []float64   // MatMul backward's packed Wᵀ (ntPanel), reused
	groups  []dualGroup // fused dual groups, indexed by their nodes' b
	lanes   []dualLane  // the groups' tangent channels, reused
	embeds  []*embedOp  // input-embedding ops, indexed by their nodes' b; reused
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
// by the caller and must never enter the pool: recycling them would let a
// later node overwrite live caller data.
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
		n.val, n.grad, n.idx, n.backward = nil, nil, nil, nil
	}
	t.nodes = t.nodes[:0]
	for i := range t.groups {
		t.pool.put(t.groups[i].d)
	}
	clear(t.groups)
	t.groups = t.groups[:0]
	clear(t.lanes)
	t.lanes = t.lanes[:0]
	t.embeds = t.embeds[:0]
}

// newNode appends a node, allocating its value buffer (len rows*cols) and,
// when needsGrad is set, its gradient buffer. Neither is zeroed: the
// caller's kernel must write every element of the value buffer, and the
// gradient follows the first-writer rule.
func (t *Tape) newNode(op Op, a, b int32, rows, cols int, needsGrad bool) (Value, *node) {
	t.nodes = append(t.nodes, node{op: op, a: a, b: b, rows: int32(rows), cols: int32(cols)})
	i := int32(len(t.nodes) - 1)
	n := &t.nodes[i]
	n.val = t.pool.get(rows * cols)
	if needsGrad {
		n.grad = t.pool.get(rows * cols)
	}
	return Value{t, i}, n
}

// newAccNode is newNode with a zeroed value buffer, for PlaceCols, whose
// kernel writes only part of it.
func (t *Tape) newAccNode(op Op, a, b int32, rows, cols int, needsGrad bool) (Value, *node) {
	v, n := t.newNode(op, a, b, rows, cols, needsGrad)
	clear(n.val)
	return v, n
}

func (t *Tape) needsGrad(idx int32) bool {
	return idx >= 0 && t.nodes[idx].grad != nil
}

// gradOf returns node idx's gradient buffer, or nil if it has none, for a
// writer that covers every element of it, and whether that writer is the
// buffer's first this step: it then stores 0 + x (0 − x for a subtraction)
// where later writers add x. A writer that covers only part of a gradient
// takes it through Value.Grad instead, which zeroes it if it is unwritten.
func (t *Tape) gradOf(idx int32) (grad []float64, first bool) {
	if idx < 0 {
		return nil, false
	}
	n := &t.nodes[idx]
	first, n.written = !n.written, true
	return n.grad, first
}

// settle zeroes the node's gradient buffer unless it has been written this
// step, and marks it written.
func (n *node) settle() {
	if !n.written {
		clear(n.grad)
		n.written = true
	}
}

// settleGroup settles node i and the nodes of its fused group below it: the
// group's one backward, run at node i, reads all their gradients.
func (t *Tape) settleGroup(i int32) {
	op, b := t.nodes[i].op, t.nodes[i].b
	for j := i; j >= 0 && t.nodes[j].op == op && t.nodes[j].b == b; j-- {
		t.nodes[j].settle()
	}
}

// Leaf registers an externally owned buffer (parameter or input batch) as a
// tape node. data must have length rows*cols and remains aliased: parameter
// updates mutate it in place between steps. When needsGrad is set, Backward
// writes the node's gradient buffer, readable via Value.Grad.
func (t *Tape) Leaf(rows, cols int, data []float64, needsGrad bool) Value {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("ad: Leaf buffer length %d ≠ %d×%d", len(data), rows, cols))
	}
	t.nodes = append(t.nodes, node{op: OpLeaf, a: -1, b: -1, rows: int32(rows), cols: int32(cols), val: data})
	i := int32(len(t.nodes) - 1)
	if needsGrad {
		t.nodes[i].grad = t.pool.get(rows * cols)
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

// get returns a buffer of length n whose contents are undefined: a recycled
// buffer keeps the values of its last use.
func (p *pool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	if bufs := p.byLen[n]; len(bufs) > 0 {
		buf := bufs[len(bufs)-1]
		p.byLen[n] = bufs[:len(bufs)-1]
		return buf
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
