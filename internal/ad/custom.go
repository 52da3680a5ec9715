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
