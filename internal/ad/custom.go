package ad

// Custom registers an externally computed operation on the tape. The caller
// supplies the already-computed output value (rows×cols, ownership passes to
// the tape via copy) and a backward closure invoked during the reverse sweep.
// Inside the closure, use Value.Grad on the output handle to read the
// upstream gradient and accumulate into input gradients via their handles.
//
// This is the entry point for the parametrized quantum circuit layer, whose
// adjoint (unitary-recompute) backward pass cannot be expressed as a
// composition of tape primitives without materializing every intermediate
// statevector.
func (t *Tape) Custom(rows, cols int, out []float64, needsGrad bool, backward func(outGrad []float64)) Value {
	if len(out) != rows*cols {
		panic("ad: Custom buffer size mismatch")
	}
	v, n := t.newNode(OpCustom, -1, -1, rows, cols, needsGrad)
	copy(n.val, out)
	if needsGrad && backward != nil {
		grad := n.grad
		n.backward = func() { backward(grad) }
	}
	return v
}

// CustomInPlace is Custom without the copy: the tape takes ownership of out,
// which must have been sized rows*cols by the caller. The buffer is recycled
// into the tape pool on Reset, so callers must not retain it.
func (t *Tape) CustomInPlace(rows, cols int, out []float64, needsGrad bool, backward func(outGrad []float64)) Value {
	if len(out) != rows*cols {
		panic("ad: CustomInPlace buffer size mismatch")
	}
	t.nodes = append(t.nodes, node{op: OpCustom, a: -1, b: -1, rows: int32(rows), cols: int32(cols), val: out})
	i := int32(len(t.nodes) - 1)
	n := &t.nodes[i]
	if needsGrad {
		n.grad = t.alloc(rows * cols)
		grad := n.grad
		n.backward = func() { backward(grad) }
	}
	return Value{t, i}
}
