package nn

import (
	"math/rand"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/qsim"

	// Link the multi-process shard executor: importing it registers the
	// EngineDist transport with qsim, so every binary that builds quantum
	// models can select -engine dist (and can self-exec as a worker).
	_ "repro/internal/dist"
)

// Quantum is the PQC layer of the QPINN (§2.3): it scales the incoming
// tanh-bounded activations into embedding angles using one of the five
// encodings of eq. 29, runs the parametrized quantum circuit through the
// adjoint-differentiated batched simulator, and exposes the per-qubit
// Pauli-Z expectations (and their input tangents) as tape values. Each
// qubit acts as one neuron of the following layer. The circuit-execution
// strategy is pluggable (qsim.Engine); training defaults to the sharded
// compiled engine.
type Quantum struct {
	Circ    *qsim.Circuit
	Scaling qsim.ScalingKind
	Theta   *Param

	pqc  qsim.PQC
	free map[int][]*qsim.Workspace
}

// NewQuantum builds the layer with the given ansatz parameters initialized
// by strategy (InitRegular draws from rng) and circuits executed by the
// given engine (qsim.EngineSharded, the zero value, unless a comparator is
// being measured).
func NewQuantum(r *Registry, rng *rand.Rand, circ *qsim.Circuit, scaling qsim.ScalingKind, init qsim.InitStrategy, engine qsim.EngineKind) *Quantum {
	q := &Quantum{Circ: circ, Scaling: scaling, free: make(map[int][]*qsim.Workspace)}
	q.pqc = qsim.PQC{Circ: circ, Eng: engine}
	q.Theta = r.New("quantum.theta", 1, circ.NumParams, func(w []float64) {
		init.Fill(w, rng.Float64)
	})
	return q
}

// scale applies the input-angle encoding as differentiable dual ops.
func (q *Quantum) scale(tp *ad.Tape, a dual.D) dual.D {
	switch q.Scaling {
	case qsim.ScaleNone:
		return a
	case qsim.ScalePi:
		return dual.Scale(tp, a, 3.141592653589793)
	case qsim.ScaleBias:
		return dual.Scale(tp, dual.Shift(tp, a, 1), 3.141592653589793/2)
	case qsim.ScaleAsin:
		return dual.Shift(tp, dual.Asin(tp, a), 3.141592653589793/2)
	case qsim.ScaleAcos:
		return dual.Acos(tp, a)
	}
	panic("nn: unknown scaling")
}

// checkout obtains a workspace for batch size n, reusing returned ones.
func (q *Quantum) checkout(n int) *qsim.Workspace {
	list := q.free[n]
	if len(list) > 0 {
		ws := list[len(list)-1]
		q.free[n] = list[:len(list)-1]
		return ws
	}
	return qsim.NewWorkspace(n, q.Circ.NumQubits)
}

func (q *Quantum) release(n int, ws *qsim.Workspace) {
	q.free[n] = append(q.free[n], ws)
}

// Forward runs the quantum layer. x must have NumQubits columns.
func (q *Quantum) Forward(tp *ad.Tape, x dual.D) dual.D {
	angles := q.scale(tp, x)
	n := angles.V.Rows()
	nq := q.Circ.NumQubits

	tans := make([][]float64, qsim.MaxTangents)
	for k := 0; k < qsim.MaxTangents; k++ {
		if angles.T[k].Valid() {
			tans[k] = angles.T[k].Data()
		}
	}

	ws := q.checkout(n)
	z, ztans := q.pqc.Forward(ws, angles.V.Data(), tans, q.Theta.W)

	needsGrad := angles.V.NeedsGrad() || q.Theta.Leaf().NeedsGrad()
	if !needsGrad {
		// Pure inference: publish outputs as constants and recycle now.
		q.release(n, ws)
		out := dual.FromValue(tp.Const(n, nq, z))
		for k := 0; k < qsim.MaxTangents; k++ {
			if ztans[k] != nil {
				out.T[k] = tp.Const(n, nq, ztans[k])
			}
		}
		return out
	}

	// The workspace is normally recycled by the backward closure, but a tape
	// that is reset without Backward ever running (an abandoned step, an
	// inference probe on a trainable graph) would strand it — one fresh
	// workspace allocation per call, forever. Register a reset hook so
	// whichever of (backward, reset) happens first returns it to the free
	// list, and the other is a no-op.
	released := false
	releaseOnce := func() {
		if !released {
			released = true
			q.release(n, ws)
		}
	}
	tp.OnReset(releaseOnce)

	// Publish tangent outputs first, value output last: the reverse sweep
	// visits the value node *after* all tangent nodes, so its backward
	// closure sees fully accumulated upstream gradients for every channel
	// and can run the adjoint pass exactly once.
	var out dual.D
	tanVals := make([]ad.Value, qsim.MaxTangents)
	for k := 0; k < qsim.MaxTangents; k++ {
		if ztans[k] != nil {
			tanVals[k] = tp.Custom(n, nq, ztans[k], true, nil)
			out.T[k] = tanVals[k]
		}
	}
	angleGrad := angles.V.Grad()
	if angleGrad == nil {
		angleGrad = make([]float64, n*nq)
	}
	angleTanGrads := make([][]float64, qsim.MaxTangents)
	for k := 0; k < qsim.MaxTangents; k++ {
		if tans[k] == nil {
			continue
		}
		if g := angles.T[k].Grad(); g != nil {
			angleTanGrads[k] = g
		} else {
			angleTanGrads[k] = make([]float64, n*nq)
		}
	}
	thetaGrad := q.Theta.Leaf().Grad()
	if thetaGrad == nil {
		thetaGrad = make([]float64, q.Circ.NumParams)
	}

	out.V = tp.Custom(n, nq, z, true, func(gz []float64) {
		gztans := make([][]float64, qsim.MaxTangents)
		for k := 0; k < qsim.MaxTangents; k++ {
			if tanVals[k].Valid() {
				gztans[k] = tanVals[k].Grad()
			}
		}
		q.pqc.Backward(ws, gz, gztans, angleGrad, angleTanGrads, thetaGrad)
		releaseOnce()
	})
	return out
}

// ScaleOnly exposes the input-angle encoding without running the circuit
// (diagnostics: Fig. 12 distributions and entanglement probes).
func (q *Quantum) ScaleOnly(tp *ad.Tape, x dual.D) dual.D {
	return q.scale(tp, x)
}
