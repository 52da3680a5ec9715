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
// sample-block; the legacy and naive engines are per-gate comparators.
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

// loadHalfAnglesRange fills cbuf/sbuf with cos, sin of half the embedding
// angle for qubit q and dA/dB with the dU/dφ coefficients (−s/2, c/2), for
// samples [lo, hi).
func (ws *Workspace) loadHalfAnglesRange(q, lo, hi int) {
	for i := lo; i < hi; i++ {
		t := ws.angles[i*ws.nq+q] / 2
		c, s := cosSin(t)
		ws.cbuf[i], ws.sbuf[i] = c, s
		ws.dA[i], ws.dB[i] = -s/2, c/2
	}
}

// gatherTanRange extracts the per-sample tangent of the embedding angle on
// qubit q for channel k into tmpN over samples [lo, hi).
func (ws *Workspace) gatherTanRange(k, q, lo, hi int) {
	src := ws.angleTans[k]
	for i := lo; i < hi; i++ {
		ws.tmpN[i] = src[i*ws.nq+q]
	}
}

// negSinRange fills wNegS with −sin(φ/2) for samples [lo, hi) and returns
// it. wNegS must be pre-sized (see ensureScratch).
func (ws *Workspace) negSinRange(lo, hi int) []float64 {
	negS := ws.wNegS
	for i := lo; i < hi; i++ {
		negS[i] = -ws.sbuf[i]
	}
	return negS
}

// negDBRange fills wNegB with −dB for samples [lo, hi) and returns it.
func (ws *Workspace) negDBRange(lo, hi int) []float64 {
	negB := ws.wNegB
	for i := lo; i < hi; i++ {
		negB[i] = -ws.dB[i]
	}
	return negB
}

// ensureScratch sizes the lazily allocated per-sample scratch of the legacy
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

// legacyEngine is the original execution strategy: every gate application is
// its own batchwide parallel sweep. Its gate primitives are pluggable so the
// naive engine can reuse the identical adjoint algorithm with dense
// 2^nq×2^nq matrix application (the losing architecture of Table 2).
type legacyEngine struct {
	kind  EngineKind
	hooks applyHooks
}

// applyHooks are the four gate-application primitives the per-gate adjoint
// algorithm is parameterized over.
type applyHooks struct {
	apply      func(g Gate, s *State, theta []float64)
	applyInv   func(g Gate, s *State, theta []float64)
	applyDeriv func(g Gate, s *State, theta []float64)
	applyIXPS  func(s *State, q int, a, b []float64)
}

// fastHooks apply gates through the batched stride kernels.
var fastHooks = applyHooks{
	apply:      func(g Gate, s *State, theta []float64) { g.apply(s, theta) },
	applyInv:   func(g Gate, s *State, theta []float64) { g.applyInverse(s, theta) },
	applyDeriv: func(g Gate, s *State, theta []float64) { g.applyDeriv(s, theta) },
	applyIXPS:  func(s *State, q int, a, b []float64) { s.ApplyIXPerSample(q, a, b) },
}

func (e *legacyEngine) Kind() EngineKind { return e.kind }

func (e *legacyEngine) Forward(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (z []float64, ztans [][]float64) {
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
func (e *legacyEngine) forwardEmbedding(ws *Workspace) {
	anyTan := ws.anyTan()
	for q := 0; q < ws.nq; q++ {
		ws.loadHalfAnglesRange(q, 0, ws.n)
		if anyTan {
			ws.scr1.CopyFrom(ws.val)
			e.hooks.applyIXPS(ws.scr1, q, ws.dA, ws.dB) // D·v_pre
		}
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			e.hooks.applyIXPS(ws.tan[k], q, ws.cbuf, ws.sbuf)
			ws.gatherTanRange(k, q, 0, ws.n)
			axpyState(ws.tan[k], ws.scr1, ws.tmpN)
		}
		e.hooks.applyIXPS(ws.val, q, ws.cbuf, ws.sbuf)
	}
}

// forwardGates applies ansatz gates: input-independent unitaries act
// identically on every channel.
func (e *legacyEngine) forwardGates(ws *Workspace, gates []Gate, theta []float64) {
	for _, g := range gates {
		e.hooks.apply(g, ws.val, theta)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				e.hooks.apply(g, ws.tan[k], theta)
			}
		}
	}
}

func (e *legacyEngine) Backward(p *PQC, ws *Workspace, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, dTheta []float64) {
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
func (e *legacyEngine) reverseGates(ws *Workspace, gates []Gate, theta []float64, dTheta []float64) {
	for gi := len(gates) - 1; gi >= 0; gi-- {
		g := gates[gi]
		e.hooks.applyInv(g, ws.val, theta)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				e.hooks.applyInv(g, ws.tan[k], theta)
			}
		}
		if g.P >= 0 {
			grad := e.gateThetaGrad(ws, g, ws.lamV, ws.val)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					grad += e.gateThetaGrad(ws, g, ws.lamT[k], ws.tan[k])
				}
			}
			dTheta[g.P] += grad
		}
		e.hooks.applyInv(g, ws.lamV, theta)
		for k := 0; k < MaxTangents; k++ {
			if ws.active[k] {
				e.hooks.applyInv(g, ws.lamT[k], theta)
			}
		}
	}
}

// reverseEmbedding un-applies the embedding block (qubits in reverse order),
// accumulating angle and angle-tangent gradients including the closed-form
// second-derivative coupling term.
func (e *legacyEngine) reverseEmbedding(ws *Workspace, dAngles []float64, dAngleTans [][]float64) {
	n, nq := ws.n, ws.nq
	for q := nq - 1; q >= 0; q-- {
		ws.loadHalfAnglesRange(q, 0, n)

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
		negS := ws.negSinRange(0, n)
		e.hooks.applyIXPS(ws.val, q, ws.cbuf, negS) // U†: RX(−φ)
		ws.scr1.CopyFrom(ws.val)
		e.hooks.applyIXPS(ws.scr1, q, ws.dA, ws.dB) // D·v_pre

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
			e.hooks.applyIXPS(ws.tan[k], q, ws.cbuf, negS)
			ws.scr2.CopyFrom(ws.tan[k])
			e.hooks.applyIXPS(ws.scr2, q, ws.dA, ws.dB)
			innerRe(ws.lamT[k], ws.scr2, ws.tmpN)
			for i := 0; i < n; i++ {
				dAngles[i*nq+q] += ws.tmpN[i]
			}
		}

		// Propagate adjoints: λv ← U†λv + Σₖ φ̇ₖ·D†λtₖ ; λtₖ ← U†λtₖ.
		e.hooks.applyIXPS(ws.lamV, q, ws.cbuf, negS)
		for k := 0; k < MaxTangents; k++ {
			if !ws.active[k] {
				continue
			}
			ws.scr2.CopyFrom(ws.lamT[k])
			e.hooks.applyIXPS(ws.scr2, q, ws.dA, ws.negDBRange(0, n)) // D†
			ws.gatherTanRange(k, q, 0, n)
			axpyState(ws.lamV, ws.scr2, ws.tmpN)
			e.hooks.applyIXPS(ws.lamT[k], q, ws.cbuf, negS)
		}
	}
}

// gateThetaGrad computes Σ_samples Re⟨λ, dU/dθ ψ⟩ for one ansatz gate.
func (e *legacyEngine) gateThetaGrad(ws *Workspace, g Gate, lam, psi *State) float64 {
	ws.scr1.CopyFrom(psi)
	e.hooks.applyDeriv(g, ws.scr1, ws.theta)
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
