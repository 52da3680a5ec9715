package qsim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// PQC executes a data-encoded parametrized quantum circuit as a
// differentiable layer: an RX angle-embedding per qubit (angles are network
// activations, possibly carrying forward tangents ∂/∂x, ∂/∂y, ∂/∂t),
// followed by the ansatz gates, followed by per-qubit Pauli-Z expectations.
//
// Differentiation uses the adjoint method with unitary recompute: the
// backward pass never stores intermediate statevectors — it walks the gate
// list in reverse, recovering each pre-gate state by applying the inverse
// gate, and accumulates Re⟨λ|∂U/∂θ|ψ⟩ terms on the fly. Tangent channels
// propagate through the same unitaries (ansatz angles carry no input
// tangents); only the embedding RX couples channels, contributing the
// closed-form second derivative d²RX/dφ² = −RX/4.
//
// Execution strategy is pluggable via Eng (see Engine): the default sharded
// engine compiles the circuit once and streams it sample-block by
// sample-block; the naive engine runs the circuit gate by gate on dense
// matrices and is the reference the others are checked against.
type PQC struct {
	Circ *Circuit
	Eng  EngineKind

	prog *Program
}

// Forward runs the circuit on a batch using the selected engine. angles is
// n×nq row-major; angleTans[k] is the k-th tangent of the angles (nil for a
// structurally zero channel); theta are the ansatz parameters. It returns
// the Pauli-Z expectations z (n×nq) and their tangents ztans[k] (nil where
// the input tangent was nil). Returned slices are freshly allocated.
func (p *PQC) Forward(ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (z []float64, ztans [][]float64) {
	sp := trace.BeginPass(trace.KForward)
	defer sp.End()
	defer recordForward(time.Now()) //torq:allow nondet -- telemetry timing only, never feeds the numerics
	return p.Eng.engine().Forward(p, ws, angles, angleTans, theta)
}

// Backward consumes upstream gradients gz (n×nq) and gztans[k] (nil where
// the tangent channel was absent) and accumulates into dAngles (n×nq),
// dAngleTans[k] (n×nq, may be nil) and dTheta. Forward must have been called
// on the same workspace; the workspace's states are destroyed.
func (p *PQC) Backward(ws *Workspace, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, dTheta []float64) {
	sp := trace.BeginPass(trace.KBackward)
	defer sp.End()
	defer recordBackward(time.Now()) //torq:allow nondet -- telemetry timing only, never feeds the numerics
	p.Eng.engine().Backward(p, ws, gz, gztans, dAngles, dAngleTans, dTheta)
}

// Program returns the compiled level-3 instruction stream for the current
// circuit, compiling on first use. Not safe for concurrent first calls.
func (p *PQC) Program() *Program {
	if p.prog == nil || p.prog.circ != p.Circ {
		sp := trace.Begin(trace.KCompile, trace.CurrentPass())
		p.prog = CompileProgram(p.Circ)
		sp.End()
	}
	return p.prog
}

// MaxTangents is the number of forward tangent channels supported (x, y, t).
const MaxTangents = 3

// Workspace owns the state buffers for one batch size. It is reused across
// training steps; Forward reconfigures it as needed. All per-sample scratch
// is indexed by absolute sample position, so engine workers operating on
// disjoint sample ranges share one workspace without synchronization.
type Workspace struct {
	n, nq int

	val  *State
	tan  [MaxTangents]*State
	lamV *State
	lamT [MaxTangents]*State
	scr1 *State
	scr2 *State

	// Saved forward inputs for the backward pass.
	angles    []float64
	angleTans [MaxTangents][]float64
	theta     []float64
	active    [MaxTangents]bool

	// Per-sample scratch.
	cbuf, sbuf, dA, dB, tmpN []float64
	wNegS, wNegB             []float64

	// Program scratch: forward coefficient slots, the column-packed opU4
	// matrices (U and U†, packCoeffs) and the fused-block derivative slots
	// of the backward walk, each filled once per pass.
	coeff []float64
	pack  []float64
	dcoef []float64

	// Sharded-engine scratch: per-shard dTheta partials (stride NumParams)
	// and fused-diagonal accumulators (stride ndiag·dim), merged in shard
	// order so gradients are independent of the worker count.
	dthS  []float64
	diagS []float64
}

// NewWorkspace allocates buffers for batches of n samples over nq qubits.
func NewWorkspace(n, nq int) *Workspace {
	ws := &Workspace{n: n, nq: nq}
	ws.val = NewState(n, nq)
	ws.lamV = NewZeroState(n, nq)
	ws.scr1 = NewZeroState(n, nq)
	ws.scr2 = NewZeroState(n, nq)
	ws.cbuf = make([]float64, n)
	ws.sbuf = make([]float64, n)
	ws.dA = make([]float64, n)
	ws.dB = make([]float64, n)
	ws.tmpN = make([]float64, n)
	ws.angles = make([]float64, n*nq)
	ws.theta = nil
	return ws
}

func (ws *Workspace) ensureTangent(k int) {
	if ws.tan[k] == nil {
		ws.tan[k] = NewZeroState(ws.n, ws.nq)
		ws.lamT[k] = NewZeroState(ws.n, ws.nq)
		ws.angleTans[k] = make([]float64, ws.n*ws.nq)
	}
}

// saveInputs validates and copies the forward inputs into the workspace and
// activates the requested tangent channels. Every engine calls it first.
func (ws *Workspace) saveInputs(p *PQC, angles []float64, angleTans [][]float64, theta []float64) {
	n, nq := ws.n, ws.nq
	if len(angles) != n*nq {
		panic(fmt.Sprintf("qsim: angles %d ≠ %d×%d", len(angles), n, nq))
	}
	if len(theta) != p.Circ.NumParams {
		panic(fmt.Sprintf("qsim: theta %d ≠ %d", len(theta), p.Circ.NumParams))
	}
	copy(ws.angles, angles)
	ws.theta = append(ws.theta[:0], theta...)
	for k := 0; k < MaxTangents; k++ {
		ws.active[k] = k < len(angleTans) && angleTans[k] != nil
		if ws.active[k] {
			ws.ensureTangent(k)
			copy(ws.angleTans[k], angleTans[k])
		}
	}
}

// anyTan reports whether any tangent channel is active.
func (ws *Workspace) anyTan() bool {
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			return true
		}
	}
	return false
}

// loadHalfAngles fills cbuf/sbuf with cos, sin of half the embedding angle
// for qubit q and dA/dB with the dU/dφ coefficients (−s/2, c/2).
func (ws *Workspace) loadHalfAngles(q int) {
	for i := 0; i < ws.n; i++ {
		t := ws.angles[i*ws.nq+q] / 2
		c, s := cosSin(t)
		ws.cbuf[i], ws.sbuf[i] = c, s
		ws.dA[i], ws.dB[i] = -s/2, c/2
	}
}

// gatherTan extracts the per-sample tangent of the embedding angle on
// qubit q for channel k into tmpN.
func (ws *Workspace) gatherTan(k, q int) {
	src := ws.angleTans[k]
	for i := 0; i < ws.n; i++ {
		ws.tmpN[i] = src[i*ws.nq+q]
	}
}

// negSin fills wNegS with −sin(φ/2) and returns it. wNegS must be
// pre-sized (see ensureScratch).
func (ws *Workspace) negSin() []float64 {
	negS := ws.wNegS
	for i := range negS {
		negS[i] = -ws.sbuf[i]
	}
	return negS
}

// negDB fills wNegB with −dB and returns it.
func (ws *Workspace) negDB() []float64 {
	negB := ws.wNegB
	for i := range negB {
		negB[i] = -ws.dB[i]
	}
	return negB
}

// ensureScratch sizes the lazily allocated per-sample scratch of the naive
// engine's embedding adjoint.
func (ws *Workspace) ensureScratch() {
	if cap(ws.wNegS) < ws.n {
		ws.wNegS = make([]float64, ws.n)
	}
	ws.wNegS = ws.wNegS[:ws.n]
	if cap(ws.wNegB) < ws.n {
		ws.wNegB = make([]float64, ws.n)
	}
	ws.wNegB = ws.wNegB[:ws.n]
}

// naiveEngine is the reference execution strategy: it walks the circuit gate
// by gate and applies every gate to every sample as a dense 2^nq×2^nq matrix
// (the dense primitives in naive.go), so it shares no kernel with the
// compiled program. The adjoint algorithm it runs is the per-gate form of
// the one the compiled engines fuse.
type naiveEngine struct{}

func (naiveEngine) Kind() EngineKind { return EngineNaive }

func (e naiveEngine) Forward(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (z []float64, ztans [][]float64) {
	ws.saveInputs(p, angles, angleTans, theta)
	n, nq := ws.n, ws.nq

	ws.val.Reset(false)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			ws.tan[k].Reset(true)
		}
	}

	// Data re-uploading (§6.2(c) extension): the embedding block repeats
	// before every ansatz layer; otherwise it runs once as a prefix.
	for _, seg := range p.Circ.segments() {
		e.forwardEmbedding(ws)
		e.forwardGates(ws, seg, theta)
	}

	z = make([]float64, n*nq)
	ws.val.ExpZ(z)
	ztans = make([][]float64, MaxTangents)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			ztans[k] = make([]float64, n*nq)
			CrossZ(ws.val, ws.tan[k], ztans[k])
		}
	}
	return z, ztans
}

// forwardEmbedding applies RX(angle_q) per qubit, coupling tangent channels
// through t' = U·t + φ̇·(dU/dφ)·v.
func (naiveEngine) forwardEmbedding(ws *Workspace) {
	anyTan := ws.anyTan()
	for q := 0; q < ws.nq; q++ {
		ws.loadHalfAngles(q)
		if anyTan {
			ws.scr1.CopyFrom(ws.val)
			denseApplyIX(ws.scr1, q, ws.dA, ws.dB) // D·v_pre
		}
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			denseApplyIX(ws.tan[k], q, ws.cbuf, ws.sbuf)
			ws.gatherTan(k, q)
			axpyState(ws.tan[k], ws.scr1, ws.tmpN)
		}
		denseApplyIX(ws.val, q, ws.cbuf, ws.sbuf)
	}
}

// forwardGates applies ansatz gates: input-independent unitaries act
// identically on every channel.
func (naiveEngine) forwardGates(ws *Workspace, gates []Gate, theta []float64) {
	for _, g := range gates {
		u := expand(g, theta, ws.nq)
		denseApplyAll(ws.val, u)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				denseApplyAll(ws.tan[k], u)
			}
		}
	}
}

func (e naiveEngine) Backward(p *PQC, ws *Workspace, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, dTheta []float64) {
	n := ws.n
	theta := ws.theta
	ws.ensureScratch()

	// Seed adjoints from the quadratic readout (see seedAdjointsRange).
	seedAdjointsRange(ws, &identityReadout, 0, n, gz, gztans)

	// Walk the circuit in reverse, mirroring the forward structure.
	segs := p.Circ.segments()
	for l := len(segs) - 1; l >= 0; l-- {
		e.reverseGates(ws, segs[l], theta, dTheta)
		e.reverseEmbedding(ws, dAngles, dAngleTans)
	}
}

// reverseGates recovers pre-gate states via inverses, accumulates
// dθ = Σ_channels Re⟨λ, dU/dθ ψ_pre⟩, and propagates λ ← U†λ.
func (e naiveEngine) reverseGates(ws *Workspace, gates []Gate, theta []float64, dTheta []float64) {
	for gi := len(gates) - 1; gi >= 0; gi-- {
		g := gates[gi]
		// U† is the rotation with its angle negated; CNOT is its own inverse.
		var angle float64
		if g.P >= 0 {
			angle = theta[g.P]
		}
		inv := expandAngle(g, -angle, ws.nq)
		denseApplyAll(ws.val, inv)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				denseApplyAll(ws.tan[k], inv)
			}
		}
		if g.P >= 0 {
			d := expandDeriv(g, angle, ws.nq)
			grad := e.gateThetaGrad(ws, d, ws.lamV, ws.val)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					grad += e.gateThetaGrad(ws, d, ws.lamT[k], ws.tan[k])
				}
			}
			dTheta[g.P] += grad
		}
		denseApplyAll(ws.lamV, inv)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				denseApplyAll(ws.lamT[k], inv)
			}
		}
	}
}

// reverseEmbedding un-applies the embedding block (qubits in reverse order),
// accumulating angle and angle-tangent gradients including the closed-form
// second-derivative coupling term.
func (naiveEngine) reverseEmbedding(ws *Workspace, dAngles []float64, dAngleTans [][]float64) {
	n, nq := ws.n, ws.nq
	for q := nq - 1; q >= 0; q-- {
		ws.loadHalfAngles(q)

		// (c) second-derivative coupling needs the *post*-gate value state:
		// dφ += −¼ · φ̇ₖ · Re⟨λtₖ, U v_pre⟩ = −¼ · φ̇ₖ · Re⟨λtₖ, v_post⟩.
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			innerRe(ws.lamT[k], ws.val, ws.tmpN)
			for i := 0; i < n; i++ {
				dAngles[i*nq+q] -= 0.25 * ws.angleTans[k][i*nq+q] * ws.tmpN[i]
			}
		}

		// Recover v_pre and D·v_pre.
		negS := ws.negSin()
		denseApplyIX(ws.val, q, ws.cbuf, negS) // U†: RX(−φ)
		ws.scr1.CopyFrom(ws.val)
		denseApplyIX(ws.scr1, q, ws.dA, ws.dB) // D·v_pre

		// (a) dφ += Re⟨λv, D v_pre⟩ ; dφ̇ₖ += Re⟨λtₖ, D v_pre⟩.
		innerRe(ws.lamV, ws.scr1, ws.tmpN)
		for i := 0; i < n; i++ {
			dAngles[i*nq+q] += ws.tmpN[i]
		}
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			innerRe(ws.lamT[k], ws.scr1, ws.tmpN)
			if dAngleTans != nil && k < len(dAngleTans) && dAngleTans[k] != nil {
				for i := 0; i < n; i++ {
					dAngleTans[k][i*nq+q] += ws.tmpN[i]
				}
			}
		}

		// Recover tₖ_pre = U†(tₖ_post − φ̇ₖ·D v_pre), then
		// (b) dφ += Re⟨λtₖ, D tₖ_pre⟩.
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			for i := 0; i < n; i++ {
				ws.tmpN[i] = -ws.angleTans[k][i*nq+q]
			}
			axpyState(ws.tan[k], ws.scr1, ws.tmpN)
			denseApplyIX(ws.tan[k], q, ws.cbuf, negS)
			ws.scr2.CopyFrom(ws.tan[k])
			denseApplyIX(ws.scr2, q, ws.dA, ws.dB)
			innerRe(ws.lamT[k], ws.scr2, ws.tmpN)
			for i := 0; i < n; i++ {
				dAngles[i*nq+q] += ws.tmpN[i]
			}
		}

		// Propagate adjoints: λv ← U†λv + Σₖ φ̇ₖ·D†λtₖ ; λtₖ ← U†λtₖ.
		denseApplyIX(ws.lamV, q, ws.cbuf, negS)
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			ws.scr2.CopyFrom(ws.lamT[k])
			denseApplyIX(ws.scr2, q, ws.dA, ws.negDB()) // D†
			ws.gatherTan(k, q)
			axpyState(ws.lamV, ws.scr2, ws.tmpN)
			denseApplyIX(ws.lamT[k], q, ws.cbuf, negS)
		}
	}
}

// gateThetaGrad computes Σ_samples Re⟨λ, dU/dθ ψ⟩ for one ansatz gate,
// given dU/dθ as the dense matrix d.
func (naiveEngine) gateThetaGrad(ws *Workspace, d cmat, lam, psi *State) float64 {
	ws.scr1.CopyFrom(psi)
	denseApplyAll(ws.scr1, d)
	innerRe(lam, ws.scr1, ws.tmpN)
	var sum float64
	for _, v := range ws.tmpN {
		sum += v
	}
	return sum
}

// cosSin returns cos(x), sin(x). math.Sincos shares one argument
// reduction between the two and returns the same bits as math.Cos and
// math.Sin.
func cosSin(x float64) (float64, float64) {
	s, c := math.Sincos(x)
	return c, s
}
