package qsim

import (
	"fmt"
	"slices"
	"strings"
)

// EngineKind selects the circuit-execution strategy behind PQC.
type EngineKind uint8

const (
	// EngineSharded executes the level-3 compiled program (CNOTs tracked
	// in a basis frame, commutation-aware diagonal absorption, paired
	// single-qubit runs) as independent sample shards on the work-stealing scheduler:
	// each shard streams the whole instruction stream through one
	// cache-resident block and owns a private gradient accumulator, and
	// shard partials merge in shard order after the adjoint pass — so
	// gradients are bit-identical for every worker count, and uneven
	// per-shard costs rebalance across the pool. The zero value: the one
	// production in-process engine. A shard is exactly the unit EngineDist
	// ships to a remote executor.
	EngineSharded EngineKind = iota
	// EngineDist executes the same fixed cache-block shards as EngineSharded
	// but ships them to worker *processes* (local subprocesses or remote
	// torq-worker instances) over a framed binary protocol, merging results
	// in shard order so gradients and z rows stay bit-identical to the
	// in-process sharded engine for any worker count. The transport and
	// worker lifecycle live in repro/internal/dist, which registers itself
	// through RegisterDistBackend; selecting "dist" in a binary that does
	// not link that package panics with instructions.
	EngineDist
	// Kind 2 is reserved: it named the retired per-gate engine, and a
	// checkpoint that stored it fails config validation instead of running
	// as another engine.
	_
	// EngineNaive runs the per-gate adjoint algorithm with every gate
	// applied as a dense 2^nq×2^nq matrix per sample (the default.qubit-style
	// losing architecture of Table 2): the reference the other engines are
	// checked against.
	EngineNaive
)

// engineFlags holds each engine's -engine flag value, indexed by kind; the
// reserved kind has none.
var engineFlags = [...]string{EngineSharded: "sharded", EngineDist: "dist", EngineNaive: "naive"}

func (k EngineKind) String() string {
	if int(k) >= len(engineFlags) || engineFlags[k] == "" {
		return "unknown"
	}
	return engineFlags[k]
}

// EngineKinds lists every registered engine in presentation order, the
// order of engineFlags, which feeds flag help and ParseEngine's error text.
// Config validation and the name round-trip test iterate it, and
// TestEngineKindsClosed checks that it holds every named engine.
func EngineKinds() []EngineKind {
	return []EngineKind{EngineSharded, EngineDist, EngineNaive}
}

// EngineNames returns the canonical flag names of every registered engine,
// "|"-separated, for flag usage strings and error messages.
func EngineNames() string { return flagList(engineFlags[:]) }

// ParseEngine maps a flag value to an EngineKind; the empty string selects
// the default, EngineSharded.
func ParseEngine(s string) (EngineKind, error) {
	if s == "" {
		return EngineSharded, nil
	}
	return parseFlag[EngineKind]("engine", s, engineFlags[:])
}

// AnsatzNames and ScalingNames return the valid -ansatz and -scale flag
// values, "|"-separated, for flag usage strings.
func AnsatzNames() string  { return strings.Join(ansatzFlags[:], "|") }
func ScalingNames() string { return strings.Join(scalingFlags[:], "|") }

// ParseAnsatz maps an -ansatz flag value to its AnsatzKind.
func ParseAnsatz(s string) (AnsatzKind, error) {
	return parseFlag[AnsatzKind]("ansatz", s, ansatzFlags[:])
}

// ParseScaling maps a -scale flag value to its ScalingKind.
func ParseScaling(s string) (ScalingKind, error) {
	return parseFlag[ScalingKind]("scaling", s, scalingFlags[:])
}

// parseFlag returns the kind whose flag value in names (indexed by kind) is
// s; the error lists every valid value.
func parseFlag[K ~int | ~uint8](what, s string, names []string) (K, error) {
	if i := slices.Index(names, s); i >= 0 {
		return K(i), nil
	}
	return 0, fmt.Errorf("qsim: unknown %s %q (want %s)", what, s, flagList(names))
}

// flagList joins the non-empty flag values in names with "|", skipping the
// reserved engine kind.
func flagList(names []string) string {
	var valid []string
	for _, s := range names {
		if s != "" {
			valid = append(valid, s)
		}
	}
	return strings.Join(valid, "|")
}

// Engine is the pluggable execution strategy for a PQC pass: it owns how
// the embedding, ansatz gates, readout, and adjoint backward traverse the
// batch. All engines are numerically interchangeable (see the parity tests)
// and differ only in architecture — the axis the paper's Table 2 measures.
type Engine interface {
	Kind() EngineKind
	Forward(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (z []float64, ztans [][]float64)
	Backward(p *PQC, ws *Workspace, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, dTheta []float64)
}

var (
	engineSharded Engine = shardedEngine{}
	engineDist    Engine = distEngine{}
	engineNaive   Engine = naiveEngine{}
)

// engine returns k's Engine. A kind outside EngineKinds panics rather than
// run as another engine; configurations are validated before they get here.
func (k EngineKind) engine() Engine {
	switch k {
	case EngineSharded:
		return engineSharded
	case EngineDist:
		return engineDist
	case EngineNaive:
		return engineNaive
	}
	panic(fmt.Sprintf("qsim: unknown engine %d", k))
}

// blockSamples picks how many samples one worker streams through the whole
// instruction stream at a time: small enough that all live channel states
// of the block stay cache-resident across every instruction, large enough
// to amortize instruction dispatch.
func blockSamples(dim, channels int) int {
	const targetBytes = 64 << 10 // L1/L2-resident working set per worker
	per := dim * 16 * channels   // re+im float64 planes per sample per channel
	b := targetBytes / per
	if b < 1 {
		return 1
	}
	if b > 64 {
		return 64
	}
	return b
}

// prepForward performs the per-pass setup every program-streaming engine
// shares: save inputs, compile/fill the coefficient slots, allocate the
// outputs, and size the cache-resident sample block for the live channel
// count.
func prepForward(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (prog *Program, coeff []float64, z []float64, ztans [][]float64, blk int) {
	prog, coeff, blk = prepPass(p, ws, angles, angleTans, theta)
	n, nq := ws.n, ws.nq
	z = make([]float64, n*nq)
	ztans = make([][]float64, MaxTangents)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			ztans[k] = make([]float64, n*nq)
		}
	}
	return prog, coeff, z, ztans, blk
}

// prepPass is prepForward without the output allocation: save inputs, fill
// the coefficient slots and the packed opU4 tables, and size the
// cache-resident sample block for the live channel count.
func prepPass(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (prog *Program, coeff []float64, blk int) {
	ws.saveInputs(p, angles, angleTans, theta)
	prog = p.Program()
	fillCoeffs(ws, prog, theta)
	coeff = ws.coeff

	channels := 1
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			channels++
		}
	}
	if ws.anyTan() && prog.reembeds() {
		channels++ // scr1 holds D·v during a re-upload embedding
	}
	blk = blockSamples(ws.val.Dim, channels)
	return prog, coeff, blk
}

// fwdBlock streams the whole program through samples [lo, hi): every
// instruction, then the ⟨Z⟩ and tangent readouts through the program's
// readout map while the block is still hot. Every program starts with
// opEmbedProd, which writes the value and every active tangent state
// outright, so no reset precedes it.
//
//torq:hotpath
func fwdBlock(ws *Workspace, prog *Program, coeff []float64, lo, hi int, z []float64, ztans [][]float64) {
	for i := range prog.ins {
		in := &prog.ins[i]
		switch in.op {
		case opEmbedProd:
			embedProdRange(ws, embedWall(in, coeff, ws.nq), lo, hi)
		case opEmbedAll:
			embedAllRange(ws, in.walks, lo, hi)
		case opU4:
			pk := (*[32]float64)(ws.pack[in.pslot : in.pslot+32])
			w := &in.walks[0]
			ws.val.applyU4Range(lo, hi, w, pk)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyU4Range(lo, hi, w, pk)
				}
			}
		case opDiagN:
			ph := coeff[in.slot : in.slot+2*ws.val.Dim]
			ws.val.applyDiagNRange(lo, hi, ph)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyDiagNRange(lo, hi, ph)
				}
			}
		case opU2:
			u := (*[8]float64)(coeff[in.slot : in.slot+8])
			ws.val.applyU2Range(lo, hi, in.q, u)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyU2Range(lo, hi, in.q, u)
				}
			}
		}
	}
	readoutRange(ws.val, nil, z, lo, hi, &prog.readout)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			readoutRange(ws.val, ws.tan[k], ztans[k], lo, hi, &prog.readout)
		}
	}
}

// embedAllRange is the re-upload embedding instruction: it applies the whole
// RX(angle_q) embedding block sample-major — every qubit of one sample
// before moving to the next — so the sample's amplitudes and its per-qubit
// trigonometry stay hot across the entire block. Tangent channels couple
// through t' = U·t + φ̇·(dU/dφ)·v exactly as in the per-qubit walk. walks[q]
// addresses qubit q in the program's frame at the block.
func embedAllRange(ws *Workspace, walks []groupWalk, lo, hi int) {
	nq := ws.nq
	anyTan := ws.anyTan()
	for smp := lo; smp < hi; smp++ {
		for q := 0; q < nq; q++ {
			c, s := cosSin(ws.angles[smp*nq+q] / 2)
			w := &walks[q]
			if anyTan {
				ws.scr1.copySample(ws.val, smp)
				ws.scr1.applyIXSample(smp, w, -s/2, c/2) // D·v_pre
			}
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				ws.tan[k].applyIXSample(smp, w, c, s)
				axpySample(ws.tan[k], ws.scr1, ws.angleTans[k][smp*nq+q], smp)
			}
			ws.val.applyIXSample(smp, w, c, s)
		}
	}
}

// fillCoeffs fills ws.coeff with the program's forward coefficients for
// theta and ws.pack with its packed opU4 matrices, once per pass.
func fillCoeffs(ws *Workspace, prog *Program, theta []float64) {
	if cap(ws.coeff) < prog.ncoef {
		ws.coeff = make([]float64, prog.ncoef)
	}
	ws.coeff = ws.coeff[:prog.ncoef]
	prog.FillCoeffs(theta, ws.coeff)
	if cap(ws.pack) < prog.npack {
		ws.pack = make([]float64, prog.npack)
	}
	ws.pack = ws.pack[:prog.npack]
	prog.packCoeffs(ws.coeff, ws.pack)
}

// refreshCoeffs prepares a backward walk of the compiled instruction stream:
// refresh the forward coefficients and packed tables (don't rely on them
// surviving from Forward — the program may have been recompiled if the
// engine changed between passes) and the dU/dθ matrices of fused unitaries,
// once per pass.
func refreshCoeffs(ws *Workspace, prog *Program, theta []float64) {
	fillCoeffs(ws, prog, theta)
	if prog.nderiv > 0 {
		if cap(ws.dcoef) < prog.nderiv {
			ws.dcoef = make([]float64, prog.nderiv)
		}
		ws.dcoef = ws.dcoef[:prog.nderiv]
		prog.FillDerivCoeffs(theta, ws.dcoef)
	}
}

// backwardBlock sizes the cache-resident sample block for the backward
// channel count — val + λv, one (tangent, adjoint) pair per active channel,
// and the two scratch states. It is the shard size of the sharded engine's
// backward partition, shared with the dist coordinator so both produce the
// identical shard-order reduction.
func backwardBlock(dim int, active [MaxTangents]bool) int {
	channels := 4 // val + λv + scr1 + scr2
	for k := 0; k < MaxTangents; k++ {
		if active[k] {
			channels += 2
		}
	}
	return blockSamples(dim, channels)
}

// bwdScratch bundles one shard's private accumulation buffers for the
// backward walk.
type bwdScratch struct {
	dth   []float64 // per-parameter gradient partials
	diagT []float64 // per-(opDiagN, basis) adjoint-product accumulators
}

// forChannelPairs runs f over every live (state, adjoint) channel pair.
func (ws *Workspace) forChannelPairs(f func(psi, lam *State)) {
	f(ws.val, ws.lamV)
	for k := 0; k < MaxTangents; k++ {
		if ws.active[k] {
			f(ws.tan[k], ws.lamT[k])
		}
	}
}

// bwdBlock runs the adjoint pass over samples [lo, hi): seeding from the
// readout, then a reverse walk of the compiled instruction stream itself,
// so every fused block pays one inverse+gradient traversal instead of one
// per source gate, and the embedding un-applies as a single fused
// instruction.
//
//torq:hotpath
func bwdBlock(ws *Workspace, prog *Program, lo, hi int, gz []float64, gztans [][]float64, dAngles []float64, dAngleTans [][]float64, sc bwdScratch) {
	seedAdjointsRange(ws, &prog.readout, lo, hi, gz, gztans)
	coeff := ws.coeff[:prog.ncoef]
	for i := len(prog.ins) - 1; i >= 0; i-- {
		in := &prog.ins[i]
		switch in.op {
		case opEmbedProd:
			reverseEmbedProdRange(ws, in, coeff, ws.dcoef, lo, hi, dAngles, dAngleTans, sc)
		case opEmbedAll:
			reverseEmbedAllRange(ws, in.walks, lo, hi, dAngles, dAngleTans)
		case opU2:
			revU2Range(ws, in, coeff, ws.dcoef, lo, hi, sc)
		case opU4:
			revU4Range(ws, in, ws.dcoef, lo, hi, sc)
		case opDiagN:
			revDiagNRange(ws, in, coeff, lo, hi, sc)
		}
	}
}

// reverseEmbedAllRange is the fused embedding adjoint: the sample-major
// analogue of the naive driver's naiveEngine.reverseEmbedding, un-applying
// the whole embedding block for one sample — qubits in reverse order —
// before moving to the next, so the sample's value, tangent, and adjoint
// amplitudes stay cache-hot across the entire per-qubit sequence and the
// per-qubit scratch copies shrink to one sample. See
// naiveEngine.reverseEmbedding for the derivation of the gradient terms
// (a)–(c).
func reverseEmbedAllRange(ws *Workspace, walks []groupWalk, lo, hi int, dAngles []float64, dAngleTans [][]float64) {
	nq := ws.nq
	for smp := lo; smp < hi; smp++ {
		for q := nq - 1; q >= 0; q-- {
			c, s := cosSin(ws.angles[smp*nq+q] / 2)
			w := &walks[q]

			// (c) second-derivative coupling on the post-gate value state.
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				t := innerReSample(ws.lamT[k], ws.val, smp)
				dAngles[smp*nq+q] -= 0.25 * ws.angleTans[k][smp*nq+q] * t
			}

			// Recover v_pre and D·v_pre.
			ws.val.applyIXSample(smp, w, c, -s) // U†: RX(−φ)
			ws.scr1.copySample(ws.val, smp)
			ws.scr1.applyIXSample(smp, w, -s/2, c/2) // D·v_pre

			// (a) dφ += Re⟨λv, D v_pre⟩ ; dφ̇ₖ += Re⟨λtₖ, D v_pre⟩.
			dAngles[smp*nq+q] += innerReSample(ws.lamV, ws.scr1, smp)
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				g := innerReSample(ws.lamT[k], ws.scr1, smp)
				if dAngleTans != nil && k < len(dAngleTans) && dAngleTans[k] != nil {
					dAngleTans[k][smp*nq+q] += g
				}
			}

			// Recover tₖ_pre = U†(tₖ_post − φ̇ₖ·D v_pre), then
			// (b) dφ += Re⟨λtₖ, D tₖ_pre⟩.
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				axpySample(ws.tan[k], ws.scr1, -ws.angleTans[k][smp*nq+q], smp)
				ws.tan[k].applyIXSample(smp, w, c, -s)
				ws.scr2.copySample(ws.tan[k], smp)
				ws.scr2.applyIXSample(smp, w, -s/2, c/2)
				dAngles[smp*nq+q] += innerReSample(ws.lamT[k], ws.scr2, smp)
			}

			// Propagate adjoints: λv ← U†λv + Σₖ φ̇ₖ·D†λtₖ ; λtₖ ← U†λtₖ.
			ws.lamV.applyIXSample(smp, w, c, -s)
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				ws.scr2.copySample(ws.lamT[k], smp)
				ws.scr2.applyIXSample(smp, w, -s/2, -c/2) // D†
				axpySample(ws.lamV, ws.scr2, ws.angleTans[k][smp*nq+q], smp)
				ws.lamT[k].applyIXSample(smp, w, c, -s)
			}
		}
	}
}

// revU2Range is the fused adjoint step for one opU2 block over samples
// [lo, hi): one traversal per channel pair recovers ψ_pre = U†ψ, propagates
// λ ← U†λ, and accumulates the adjoint outer product
// K[r,c] = Σ ψ_pre_c·conj(λ_post_r). Every source-gate gradient is linear
// in K — Re⟨λ_post, (dU/dθᵢ)·ψ_pre⟩ = Re Σ (dU/dθᵢ)[r,c]·K[r,c] — so the
// per-parameter work collapses to one tiny matrix contraction per block
// instead of one state traversal per source gate.
func revU2Range(ws *Workspace, in *instr, coeff, dcoef []float64, lo, hi int, sc bwdScratch) {
	u := coeff[in.slot : in.slot+8]
	// U† (conjugate transpose).
	ar, ai := u[0], -u[1]
	br, bi := u[4], -u[5]
	cr, ci := u[2], -u[3]
	dr, di := u[6], -u[7]
	var K [8]float64
	stride := 1 << in.q
	step := stride << 1
	dim := ws.val.Dim
	ws.forChannelPairs(func(psi, lam *State) {
		pr, pim := psi.Re, psi.Im
		lr, lim := lam.Re, lam.Im
		for smp := lo; smp < hi; smp++ {
			off := smp * dim
			for blk := 0; blk < dim; blk += step {
				base := off + blk
				for j := base; j < base+stride; j++ {
					k := j + stride
					r0, i0, r1, i1 := pr[j], pim[j], pr[k], pim[k]
					p0r := ar*r0 - ai*i0 + br*r1 - bi*i1
					p0i := ar*i0 + ai*r0 + br*i1 + bi*r1
					p1r := cr*r0 - ci*i0 + dr*r1 - di*i1
					p1i := cr*i0 + ci*r0 + dr*i1 + di*r1
					l0r, l0i, l1r, l1i := lr[j], lim[j], lr[k], lim[k]
					K[0] += p0r*l0r + p0i*l0i
					K[1] += p0i*l0r - p0r*l0i
					K[2] += p1r*l0r + p1i*l0i
					K[3] += p1i*l0r - p1r*l0i
					K[4] += p0r*l1r + p0i*l1i
					K[5] += p0i*l1r - p0r*l1i
					K[6] += p1r*l1r + p1i*l1i
					K[7] += p1i*l1r - p1r*l1i
					lr[j] = ar*l0r - ai*l0i + br*l1r - bi*l1i
					lim[j] = ar*l0i + ai*l0r + br*l1i + bi*l1r
					lr[k] = cr*l0r - ci*l0i + dr*l1r - di*l1i
					lim[k] = cr*l0i + ci*l0r + dr*l1i + di*l1r
					pr[j], pim[j], pr[k], pim[k] = p0r, p0i, p1r, p1i
				}
			}
		}
	})
	for t, p := range in.params {
		d := dcoef[in.dslot+8*t : in.dslot+8*t+8]
		sc.dth[p] += d[0]*K[0] - d[1]*K[1] + d[2]*K[2] - d[3]*K[3] +
			d[4]*K[4] - d[5]*K[5] + d[6]*K[6] - d[7]*K[7]
	}
}

// revU4Range is the fused adjoint step for one opU4 entangler block: the
// 4×4 analogue of revU2Range over the block's qubit pair, with the same
// outer-product trick so per-group cost is independent of how many
// parametrized gates the block fused. It reads U† from the pass's packed
// table.
func revU4Range(ws *Workspace, in *instr, dcoef []float64, lo, hi int, sc bwdScratch) {
	pkd := (*[32]float64)(ws.pack[in.pslot+32 : in.pslot+64])
	var K [32]float64
	ws.forChannelPairs(func(psi, lam *State) {
		revU4PairRange(psi, lam, lo, hi, &in.walks[0], pkd, &K)
	})
	for t, p := range in.params {
		d := dcoef[in.dslot+32*t : in.dslot+32*t+32]
		var g float64
		for i := 0; i < 32; i += 2 {
			g += d[i]*K[i] - d[i+1]*K[i+1]
		}
		sc.dth[p] += g
	}
}

// revDiagNRange is the fused adjoint step for a full-register diagonal
// super-op: one traversal per channel pair accumulates the per-basis
// adjoint products T_j = Σ Re⟨λ_j, −i·ψ_j⟩ into the worker's accumulator
// and un-applies the conjugate phases. The per-parameter gradients are the
// sign-table contractions of T, deferred to reduceDiagNGrads so each worker
// pays them once per pass instead of once per sample block.
func revDiagNRange(ws *Workspace, in *instr, coeff []float64, lo, hi int, sc bwdScratch) {
	dim := ws.val.Dim
	ph := coeff[in.slot : in.slot+2*dim]
	T := sc.diagT[in.tslot*dim : (in.tslot+1)*dim]
	ws.forChannelPairs(func(psi, lam *State) {
		pr, pim := psi.Re, psi.Im
		lr, lim := lam.Re, lam.Im
		for smp := lo; smp < hi; smp++ {
			off := smp * dim
			for j := 0; j < dim; j++ {
				a := off + j
				T[j] += lr[a]*pim[a] - lim[a]*pr[a]
				cr, ci := ph[2*j], -ph[2*j+1] // conj phase
				r, i := pr[a], pim[a]
				pr[a] = cr*r - ci*i
				pim[a] = cr*i + ci*r
				r, i = lr[a], lim[a]
				lr[a] = cr*r - ci*i
				lim[a] = cr*i + ci*r
			}
		}
	})
}

// reduceDiagNGrads contracts merged fused-diagonal accumulators
// against the compile-time sign tables: dθ_p += ½·Σ_j s_pj·T_j.
func reduceDiagNGrads(prog *Program, diagT, dth []float64, dim int) {
	if prog.ndiag == 0 {
		return
	}
	for i := range prog.ins {
		in := &prog.ins[i]
		if in.op != opDiagN {
			continue
		}
		T := diagT[in.tslot*dim : (in.tslot+1)*dim]
		for t, p := range in.params {
			row := in.signs[t*dim : (t+1)*dim]
			var g float64
			for j, s := range row {
				g += float64(s) * T[j]
			}
			dth[p] += 0.5 * g
		}
	}
}
