package qsim

import (
	"fmt"
	"strings"
)

// EngineKind selects the circuit-execution strategy behind PQC.
type EngineKind uint8

const (
	// EngineSharded executes the level-3 compiled program (three-qubit
	// CNOT permutations, commutation-aware diagonal absorption, grouped single-qubit
	// triples) as independent sample shards on the work-stealing scheduler:
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
	// EngineLegacy executes one batchwide parallel sweep per gate
	// application — the original execution model, kept as a comparator.
	EngineLegacy
	// EngineNaive runs the identical adjoint algorithm but applies every
	// gate as a dense 2^nq×2^nq matrix per sample (the default.qubit-style
	// losing architecture of Table 2).
	EngineNaive
)

func (k EngineKind) String() string {
	switch k {
	case EngineSharded:
		return "sharded"
	case EngineDist:
		return "dist"
	case EngineLegacy:
		return "legacy"
	case EngineNaive:
		return "naive"
	}
	return "unknown"
}

// EngineKinds lists every registered engine in presentation order — the
// single source of truth for flag help, ParseEngine's error text, and the
// name round-trip test, so a newly landed engine cannot be omitted from any
// of them.
func EngineKinds() []EngineKind {
	return []EngineKind{EngineSharded, EngineDist, EngineLegacy, EngineNaive}
}

// EngineNames returns the canonical flag names of every registered engine,
// "|"-separated, for flag usage strings and error messages.
func EngineNames() string {
	kinds := EngineKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, "|")
}

// ParseEngine maps a flag value to an EngineKind; the empty string selects
// the default, EngineSharded.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "sharded", "":
		return EngineSharded, nil
	case "dist":
		return EngineDist, nil
	case "legacy":
		return EngineLegacy, nil
	case "naive":
		return EngineNaive, nil
	}
	return EngineSharded, fmt.Errorf("qsim: unknown engine %q (want %s)", s, EngineNames())
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
	engineLegacy  Engine = &legacyEngine{kind: EngineLegacy, hooks: fastHooks}
	engineNaive   Engine = &legacyEngine{kind: EngineNaive, hooks: naiveHooks}
)

func (k EngineKind) engine() Engine {
	switch k {
	case EngineDist:
		return engineDist
	case EngineLegacy:
		return engineLegacy
	case EngineNaive:
		return engineNaive
	}
	return engineSharded
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

// prepPass is prepForward without the output allocation, for callers that
// own reusable output buffers (the dist ShardRunner, whose results are
// copied to the wire immediately): save inputs, fill the coefficient slots,
// and size the cache-resident sample block for the live channel count.
func prepPass(p *PQC, ws *Workspace, angles []float64, angleTans [][]float64, theta []float64) (prog *Program, coeff []float64, blk int) {
	ws.saveInputs(p, angles, angleTans, theta)
	prog = p.Program()
	if cap(ws.coeff) < prog.ncoef {
		ws.coeff = make([]float64, prog.ncoef)
	}
	coeff = ws.coeff[:prog.ncoef]
	prog.FillCoeffs(theta, coeff)

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
	for _, in := range prog.ins {
		switch in.op {
		case opEmbedProd:
			embedProdRange(ws, lo, hi)
		case opEmbedAll:
			embedAllRange(ws, lo, hi)
		case opU4:
			u := (*[32]float64)(coeff[in.slot : in.slot+32])
			ws.val.applyU4Range(lo, hi, in.q, in.c, u)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyU4Range(lo, hi, in.q, in.c, u)
				}
			}
		case opU2x3:
			u := (*[24]float64)(coeff[in.slot : in.slot+24])
			ws.val.applyU2x3Range(lo, hi, in.q, in.c, in.q2, u)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyU2x3Range(lo, hi, in.q, in.c, in.q2, u)
				}
			}
		case opPerm8:
			ws.val.applyPerm8Range(lo, hi, in.q, in.c, in.q2, in.cycles)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyPerm8Range(lo, hi, in.q, in.c, in.q2, in.cycles)
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
		case opDiag:
			c := coeff[in.slot:]
			ws.val.applyDiagRange(lo, hi, in.q, c[0], c[1], c[2], c[3])
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyDiagRange(lo, hi, in.q, c[0], c[1], c[2], c[3])
				}
			}
		case opCNOT:
			ws.val.applyCNOTRange(lo, hi, in.c, in.q)
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyCNOTRange(lo, hi, in.c, in.q)
				}
			}
		case opCtrlDiag:
			c := coeff[in.slot:]
			ws.val.applyCtrlDiagRange(lo, hi, in.c, in.q, c[0], c[1], c[2], c[3])
			for k := 0; k < MaxTangents; k++ {
				if ws.active[k] {
					ws.tan[k].applyCtrlDiagRange(lo, hi, in.c, in.q, c[0], c[1], c[2], c[3])
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
// through t' = U·t + φ̇·(dU/dφ)·v exactly as in the per-qubit walk.
func embedAllRange(ws *Workspace, lo, hi int) {
	nq := ws.nq
	anyTan := ws.anyTan()
	for smp := lo; smp < hi; smp++ {
		for q := 0; q < nq; q++ {
			c, s := cosSin(ws.angles[smp*nq+q] / 2)
			if anyTan {
				ws.scr1.copySample(ws.val, smp)
				ws.scr1.applyIXSample(smp, q, -s/2, c/2) // D·v_pre
			}
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				ws.tan[k].applyIXSample(smp, q, c, s)
				axpySample(ws.tan[k], ws.scr1, ws.angleTans[k][smp*nq+q], smp)
			}
			ws.val.applyIXSample(smp, q, c, s)
		}
	}
}

// refreshCoeffs prepares a backward walk of the compiled instruction stream: refresh the forward coefficients (don't rely on ws.coeff surviving
// from Forward — the program may have been recompiled if the engine changed
// between passes) and the dU/dθ matrices of fused unitaries, once per pass.
func refreshCoeffs(ws *Workspace, prog *Program, theta []float64) {
	if cap(ws.coeff) < prog.ncoef {
		ws.coeff = make([]float64, prog.ncoef)
	}
	prog.FillCoeffs(theta, ws.coeff[:prog.ncoef])
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
			reverseEmbedProdRange(ws, lo, hi, dAngles, dAngleTans)
		case opEmbedAll:
			reverseEmbedAllRange(ws, lo, hi, dAngles, dAngleTans)
		case opCNOT:
			// CNOT is its own inverse and carries no parameter.
			//torq:allow hotalloc -- forChannelPairs and this literal fully inline (-m shows no escape)
			ws.forChannelPairs(func(psi, lam *State) {
				psi.applyCNOTRange(lo, hi, in.c, in.q)
				lam.applyCNOTRange(lo, hi, in.c, in.q)
			})
		case opU2:
			revU2Range(ws, in, coeff, ws.dcoef, lo, hi, sc)
		case opU4:
			revU4Range(ws, in, coeff, ws.dcoef, lo, hi, sc)
		case opU2x3:
			revU2x3Range(ws, in, coeff, ws.dcoef, lo, hi, sc)
		case opPerm8:
			// Un-apply the compile-time permutation on both states; a
			// CNOT-only block carries no parameters, so there is no gradient.
			//torq:allow hotalloc -- forChannelPairs and this literal fully inline (-m shows no escape)
			ws.forChannelPairs(func(psi, lam *State) {
				psi.applyPerm8Range(lo, hi, in.q, in.c, in.q2, in.invCycles)
				lam.applyPerm8Range(lo, hi, in.q, in.c, in.q2, in.invCycles)
			})
		case opDiag:
			revDiagRange(ws, in, coeff, lo, hi, sc)
		case opCtrlDiag:
			revCtrlDiagRange(ws, in, coeff, lo, hi, sc)
		case opDiagN:
			revDiagNRange(ws, in, coeff, lo, hi, sc)
		}
	}
}

// reverseEmbedAllRange is the fused embedding adjoint: the sample-major
// analogue of legacyEngine.reverseEmbedding, un-applying the whole embedding
// block for one sample — qubits in reverse order — before moving to the next, so the
// sample's value, tangent, and adjoint amplitudes stay cache-hot across the
// entire per-qubit sequence and the per-qubit scratch copies shrink to one
// sample. See legacyEngine.reverseEmbedding for the derivation of the
// gradient terms (a)–(c).
func reverseEmbedAllRange(ws *Workspace, lo, hi int, dAngles []float64, dAngleTans [][]float64) {
	nq := ws.nq
	for smp := lo; smp < hi; smp++ {
		for q := nq - 1; q >= 0; q-- {
			c, s := cosSin(ws.angles[smp*nq+q] / 2)

			// (c) second-derivative coupling on the post-gate value state.
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				t := innerReSample(ws.lamT[k], ws.val, smp)
				dAngles[smp*nq+q] -= 0.25 * ws.angleTans[k][smp*nq+q] * t
			}

			// Recover v_pre and D·v_pre.
			ws.val.applyIXSample(smp, q, c, -s) // U†: RX(−φ)
			ws.scr1.copySample(ws.val, smp)
			ws.scr1.applyIXSample(smp, q, -s/2, c/2) // D·v_pre

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
				ws.tan[k].applyIXSample(smp, q, c, -s)
				ws.scr2.copySample(ws.tan[k], smp)
				ws.scr2.applyIXSample(smp, q, -s/2, c/2)
				dAngles[smp*nq+q] += innerReSample(ws.lamT[k], ws.scr2, smp)
			}

			// Propagate adjoints: λv ← U†λv + Σₖ φ̇ₖ·D†λtₖ ; λtₖ ← U†λtₖ.
			ws.lamV.applyIXSample(smp, q, c, -s)
			for k := 0; k < MaxTangents; k++ {
				if !ws.active[k] {
					continue
				}
				ws.scr2.copySample(ws.lamT[k], smp)
				ws.scr2.applyIXSample(smp, q, -s/2, -c/2) // D†
				axpySample(ws.lamV, ws.scr2, ws.angleTans[k][smp*nq+q], smp)
				ws.lamT[k].applyIXSample(smp, q, c, -s)
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
// parametrized gates the block fused.
func revU4Range(ws *Workspace, in *instr, coeff, dcoef []float64, lo, hi int, sc bwdScratch) {
	u := coeff[in.slot : in.slot+32]
	var ud [32]float64 // U†
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			ud[(r*4+c)*2] = u[(c*4+r)*2]
			ud[(r*4+c)*2+1] = -u[(c*4+r)*2+1]
		}
	}
	var K [32]float64
	ws.forChannelPairs(func(psi, lam *State) {
		revU4PairRange(psi, lam, lo, hi, in.q, in.c, &ud, &K)
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

// revU2x3Range is the fused adjoint step for a Kronecker-structured triple:
// one traversal per channel pair processes the three independent 2×2
// factors in sequence on each 8-amplitude group. For factor f the 2×2
// adjoint product K_f is taken between the ψ side with factors ≤ f already
// inverted and the λ side with factors < f inverted — exactly the pairing
// that makes Re⟨λ_post, (···⊗dU_f⊗···)ψ_pre⟩ equal the 2×2 contraction of
// dU_f against K_f, because the untouched unitary factors cancel through
// ⟨Ux, Uy⟩ = ⟨x, y⟩. Arithmetic matches three separate revU2Range steps;
// the memory passes collapse to one. The stages are unrolled over the
// group's pair structure, and the K products accumulate into per-pair
// scalars flushed once per channel pair, keeping the hot loop free of
// memory read-modify-writes.
func revU2x3Range(ws *Workspace, in *instr, coeff, dcoef []float64, lo, hi int, sc2 bwdScratch) {
	u := coeff[in.slot : in.slot+24]
	// Per-factor U† (conjugate transpose of each 2×2 block).
	var ud [24]float64
	for f := 0; f < 3; f++ {
		ud[f*8+0], ud[f*8+1] = u[f*8+0], -u[f*8+1]
		ud[f*8+2], ud[f*8+3] = u[f*8+4], -u[f*8+5]
		ud[f*8+4], ud[f*8+5] = u[f*8+2], -u[f*8+3]
		ud[f*8+6], ud[f*8+7] = u[f*8+6], -u[f*8+7]
	}
	aar, aai := ud[0], ud[0+1]
	abr, abi := ud[0+2], ud[0+3]
	acr, aci := ud[0+4], ud[0+5]
	adr, adi := ud[0+6], ud[0+7]
	bar, bai := ud[8], ud[8+1]
	bbr, bbi := ud[8+2], ud[8+3]
	bcr, bci := ud[8+4], ud[8+5]
	bdr, bdi := ud[8+6], ud[8+7]
	car, cai := ud[16], ud[16+1]
	cbr, cbi := ud[16+2], ud[16+3]
	ccr, cci := ud[16+4], ud[16+5]
	cdr, cdi := ud[16+6], ud[16+7]
	var K [3][8]float64
	sa, sb, sc := 1<<in.q, 1<<in.c, 1<<in.q2
	dim := ws.val.Dim
	ws.forChannelPairs(func(psi, lam *State) {
		pr, pim := psi.Re, psi.Im
		lr, lim := lam.Re, lam.Im
		var t0r, t0i, t1r, t1i float64
		var ka0, ka1, ka2, ka3, ka4, ka5, ka6, ka7 float64
		var kb0, kb1, kb2, kb3, kb4, kb5, kb6, kb7 float64
		var kc0, kc1, kc2, kc3, kc4, kc5, kc6, kc7 float64
		for smp := lo; smp < hi; smp++ {
			off := smp * dim
			for b1 := 0; b1 < dim; b1 += sc << 1 {
				for b2 := b1; b2 < b1+sc; b2 += sb << 1 {
					for b3 := b2; b3 < b2+sb; b3 += sa << 1 {
						for j := b3; j < b3+sa; j++ {
							i0 := off + j
							i1 := i0 + sa
							i2 := i0 + sb
							i3 := i2 + sa
							i4 := i0 + sc
							i5 := i4 + sa
							i6 := i4 + sb
							i7 := i6 + sa
							x0r, x0i := pr[i0], pim[i0]
							x1r, x1i := pr[i1], pim[i1]
							x2r, x2i := pr[i2], pim[i2]
							x3r, x3i := pr[i3], pim[i3]
							x4r, x4i := pr[i4], pim[i4]
							x5r, x5i := pr[i5], pim[i5]
							x6r, x6i := pr[i6], pim[i6]
							x7r, x7i := pr[i7], pim[i7]
							g0r, g0i := lr[i0], lim[i0]
							g1r, g1i := lr[i1], lim[i1]
							g2r, g2i := lr[i2], lim[i2]
							g3r, g3i := lr[i3], lim[i3]
							g4r, g4i := lr[i4], lim[i4]
							g5r, g5i := lr[i5], lim[i5]
							g6r, g6i := lr[i6], lim[i6]
							g7r, g7i := lr[i7], lim[i7]
							t0r = aar*x0r - aai*x0i + abr*x1r - abi*x1i
							t0i = aar*x0i + aai*x0r + abr*x1i + abi*x1r
							t1r = acr*x0r - aci*x0i + adr*x1r - adi*x1i
							t1i = acr*x0i + aci*x0r + adr*x1i + adi*x1r
							x0r, x0i, x1r, x1i = t0r, t0i, t1r, t1i
							t0r = aar*x2r - aai*x2i + abr*x3r - abi*x3i
							t0i = aar*x2i + aai*x2r + abr*x3i + abi*x3r
							t1r = acr*x2r - aci*x2i + adr*x3r - adi*x3i
							t1i = acr*x2i + aci*x2r + adr*x3i + adi*x3r
							x2r, x2i, x3r, x3i = t0r, t0i, t1r, t1i
							t0r = aar*x4r - aai*x4i + abr*x5r - abi*x5i
							t0i = aar*x4i + aai*x4r + abr*x5i + abi*x5r
							t1r = acr*x4r - aci*x4i + adr*x5r - adi*x5i
							t1i = acr*x4i + aci*x4r + adr*x5i + adi*x5r
							x4r, x4i, x5r, x5i = t0r, t0i, t1r, t1i
							t0r = aar*x6r - aai*x6i + abr*x7r - abi*x7i
							t0i = aar*x6i + aai*x6r + abr*x7i + abi*x7r
							t1r = acr*x6r - aci*x6i + adr*x7r - adi*x7i
							t1i = acr*x6i + aci*x6r + adr*x7i + adi*x7r
							x6r, x6i, x7r, x7i = t0r, t0i, t1r, t1i
							ka0 += x0r*g0r + x0i*g0i
							ka1 += x0i*g0r - x0r*g0i
							ka2 += x1r*g0r + x1i*g0i
							ka3 += x1i*g0r - x1r*g0i
							ka4 += x0r*g1r + x0i*g1i
							ka5 += x0i*g1r - x0r*g1i
							ka6 += x1r*g1r + x1i*g1i
							ka7 += x1i*g1r - x1r*g1i
							ka0 += x2r*g2r + x2i*g2i
							ka1 += x2i*g2r - x2r*g2i
							ka2 += x3r*g2r + x3i*g2i
							ka3 += x3i*g2r - x3r*g2i
							ka4 += x2r*g3r + x2i*g3i
							ka5 += x2i*g3r - x2r*g3i
							ka6 += x3r*g3r + x3i*g3i
							ka7 += x3i*g3r - x3r*g3i
							ka0 += x4r*g4r + x4i*g4i
							ka1 += x4i*g4r - x4r*g4i
							ka2 += x5r*g4r + x5i*g4i
							ka3 += x5i*g4r - x5r*g4i
							ka4 += x4r*g5r + x4i*g5i
							ka5 += x4i*g5r - x4r*g5i
							ka6 += x5r*g5r + x5i*g5i
							ka7 += x5i*g5r - x5r*g5i
							ka0 += x6r*g6r + x6i*g6i
							ka1 += x6i*g6r - x6r*g6i
							ka2 += x7r*g6r + x7i*g6i
							ka3 += x7i*g6r - x7r*g6i
							ka4 += x6r*g7r + x6i*g7i
							ka5 += x6i*g7r - x6r*g7i
							ka6 += x7r*g7r + x7i*g7i
							ka7 += x7i*g7r - x7r*g7i
							t0r = aar*g0r - aai*g0i + abr*g1r - abi*g1i
							t0i = aar*g0i + aai*g0r + abr*g1i + abi*g1r
							t1r = acr*g0r - aci*g0i + adr*g1r - adi*g1i
							t1i = acr*g0i + aci*g0r + adr*g1i + adi*g1r
							g0r, g0i, g1r, g1i = t0r, t0i, t1r, t1i
							t0r = aar*g2r - aai*g2i + abr*g3r - abi*g3i
							t0i = aar*g2i + aai*g2r + abr*g3i + abi*g3r
							t1r = acr*g2r - aci*g2i + adr*g3r - adi*g3i
							t1i = acr*g2i + aci*g2r + adr*g3i + adi*g3r
							g2r, g2i, g3r, g3i = t0r, t0i, t1r, t1i
							t0r = aar*g4r - aai*g4i + abr*g5r - abi*g5i
							t0i = aar*g4i + aai*g4r + abr*g5i + abi*g5r
							t1r = acr*g4r - aci*g4i + adr*g5r - adi*g5i
							t1i = acr*g4i + aci*g4r + adr*g5i + adi*g5r
							g4r, g4i, g5r, g5i = t0r, t0i, t1r, t1i
							t0r = aar*g6r - aai*g6i + abr*g7r - abi*g7i
							t0i = aar*g6i + aai*g6r + abr*g7i + abi*g7r
							t1r = acr*g6r - aci*g6i + adr*g7r - adi*g7i
							t1i = acr*g6i + aci*g6r + adr*g7i + adi*g7r
							g6r, g6i, g7r, g7i = t0r, t0i, t1r, t1i
							t0r = bar*x0r - bai*x0i + bbr*x2r - bbi*x2i
							t0i = bar*x0i + bai*x0r + bbr*x2i + bbi*x2r
							t1r = bcr*x0r - bci*x0i + bdr*x2r - bdi*x2i
							t1i = bcr*x0i + bci*x0r + bdr*x2i + bdi*x2r
							x0r, x0i, x2r, x2i = t0r, t0i, t1r, t1i
							t0r = bar*x1r - bai*x1i + bbr*x3r - bbi*x3i
							t0i = bar*x1i + bai*x1r + bbr*x3i + bbi*x3r
							t1r = bcr*x1r - bci*x1i + bdr*x3r - bdi*x3i
							t1i = bcr*x1i + bci*x1r + bdr*x3i + bdi*x3r
							x1r, x1i, x3r, x3i = t0r, t0i, t1r, t1i
							t0r = bar*x4r - bai*x4i + bbr*x6r - bbi*x6i
							t0i = bar*x4i + bai*x4r + bbr*x6i + bbi*x6r
							t1r = bcr*x4r - bci*x4i + bdr*x6r - bdi*x6i
							t1i = bcr*x4i + bci*x4r + bdr*x6i + bdi*x6r
							x4r, x4i, x6r, x6i = t0r, t0i, t1r, t1i
							t0r = bar*x5r - bai*x5i + bbr*x7r - bbi*x7i
							t0i = bar*x5i + bai*x5r + bbr*x7i + bbi*x7r
							t1r = bcr*x5r - bci*x5i + bdr*x7r - bdi*x7i
							t1i = bcr*x5i + bci*x5r + bdr*x7i + bdi*x7r
							x5r, x5i, x7r, x7i = t0r, t0i, t1r, t1i
							kb0 += x0r*g0r + x0i*g0i
							kb1 += x0i*g0r - x0r*g0i
							kb2 += x2r*g0r + x2i*g0i
							kb3 += x2i*g0r - x2r*g0i
							kb4 += x0r*g2r + x0i*g2i
							kb5 += x0i*g2r - x0r*g2i
							kb6 += x2r*g2r + x2i*g2i
							kb7 += x2i*g2r - x2r*g2i
							kb0 += x1r*g1r + x1i*g1i
							kb1 += x1i*g1r - x1r*g1i
							kb2 += x3r*g1r + x3i*g1i
							kb3 += x3i*g1r - x3r*g1i
							kb4 += x1r*g3r + x1i*g3i
							kb5 += x1i*g3r - x1r*g3i
							kb6 += x3r*g3r + x3i*g3i
							kb7 += x3i*g3r - x3r*g3i
							kb0 += x4r*g4r + x4i*g4i
							kb1 += x4i*g4r - x4r*g4i
							kb2 += x6r*g4r + x6i*g4i
							kb3 += x6i*g4r - x6r*g4i
							kb4 += x4r*g6r + x4i*g6i
							kb5 += x4i*g6r - x4r*g6i
							kb6 += x6r*g6r + x6i*g6i
							kb7 += x6i*g6r - x6r*g6i
							kb0 += x5r*g5r + x5i*g5i
							kb1 += x5i*g5r - x5r*g5i
							kb2 += x7r*g5r + x7i*g5i
							kb3 += x7i*g5r - x7r*g5i
							kb4 += x5r*g7r + x5i*g7i
							kb5 += x5i*g7r - x5r*g7i
							kb6 += x7r*g7r + x7i*g7i
							kb7 += x7i*g7r - x7r*g7i
							t0r = bar*g0r - bai*g0i + bbr*g2r - bbi*g2i
							t0i = bar*g0i + bai*g0r + bbr*g2i + bbi*g2r
							t1r = bcr*g0r - bci*g0i + bdr*g2r - bdi*g2i
							t1i = bcr*g0i + bci*g0r + bdr*g2i + bdi*g2r
							g0r, g0i, g2r, g2i = t0r, t0i, t1r, t1i
							t0r = bar*g1r - bai*g1i + bbr*g3r - bbi*g3i
							t0i = bar*g1i + bai*g1r + bbr*g3i + bbi*g3r
							t1r = bcr*g1r - bci*g1i + bdr*g3r - bdi*g3i
							t1i = bcr*g1i + bci*g1r + bdr*g3i + bdi*g3r
							g1r, g1i, g3r, g3i = t0r, t0i, t1r, t1i
							t0r = bar*g4r - bai*g4i + bbr*g6r - bbi*g6i
							t0i = bar*g4i + bai*g4r + bbr*g6i + bbi*g6r
							t1r = bcr*g4r - bci*g4i + bdr*g6r - bdi*g6i
							t1i = bcr*g4i + bci*g4r + bdr*g6i + bdi*g6r
							g4r, g4i, g6r, g6i = t0r, t0i, t1r, t1i
							t0r = bar*g5r - bai*g5i + bbr*g7r - bbi*g7i
							t0i = bar*g5i + bai*g5r + bbr*g7i + bbi*g7r
							t1r = bcr*g5r - bci*g5i + bdr*g7r - bdi*g7i
							t1i = bcr*g5i + bci*g5r + bdr*g7i + bdi*g7r
							g5r, g5i, g7r, g7i = t0r, t0i, t1r, t1i
							t0r = car*x0r - cai*x0i + cbr*x4r - cbi*x4i
							t0i = car*x0i + cai*x0r + cbr*x4i + cbi*x4r
							t1r = ccr*x0r - cci*x0i + cdr*x4r - cdi*x4i
							t1i = ccr*x0i + cci*x0r + cdr*x4i + cdi*x4r
							x0r, x0i, x4r, x4i = t0r, t0i, t1r, t1i
							t0r = car*x1r - cai*x1i + cbr*x5r - cbi*x5i
							t0i = car*x1i + cai*x1r + cbr*x5i + cbi*x5r
							t1r = ccr*x1r - cci*x1i + cdr*x5r - cdi*x5i
							t1i = ccr*x1i + cci*x1r + cdr*x5i + cdi*x5r
							x1r, x1i, x5r, x5i = t0r, t0i, t1r, t1i
							t0r = car*x2r - cai*x2i + cbr*x6r - cbi*x6i
							t0i = car*x2i + cai*x2r + cbr*x6i + cbi*x6r
							t1r = ccr*x2r - cci*x2i + cdr*x6r - cdi*x6i
							t1i = ccr*x2i + cci*x2r + cdr*x6i + cdi*x6r
							x2r, x2i, x6r, x6i = t0r, t0i, t1r, t1i
							t0r = car*x3r - cai*x3i + cbr*x7r - cbi*x7i
							t0i = car*x3i + cai*x3r + cbr*x7i + cbi*x7r
							t1r = ccr*x3r - cci*x3i + cdr*x7r - cdi*x7i
							t1i = ccr*x3i + cci*x3r + cdr*x7i + cdi*x7r
							x3r, x3i, x7r, x7i = t0r, t0i, t1r, t1i
							kc0 += x0r*g0r + x0i*g0i
							kc1 += x0i*g0r - x0r*g0i
							kc2 += x4r*g0r + x4i*g0i
							kc3 += x4i*g0r - x4r*g0i
							kc4 += x0r*g4r + x0i*g4i
							kc5 += x0i*g4r - x0r*g4i
							kc6 += x4r*g4r + x4i*g4i
							kc7 += x4i*g4r - x4r*g4i
							kc0 += x1r*g1r + x1i*g1i
							kc1 += x1i*g1r - x1r*g1i
							kc2 += x5r*g1r + x5i*g1i
							kc3 += x5i*g1r - x5r*g1i
							kc4 += x1r*g5r + x1i*g5i
							kc5 += x1i*g5r - x1r*g5i
							kc6 += x5r*g5r + x5i*g5i
							kc7 += x5i*g5r - x5r*g5i
							kc0 += x2r*g2r + x2i*g2i
							kc1 += x2i*g2r - x2r*g2i
							kc2 += x6r*g2r + x6i*g2i
							kc3 += x6i*g2r - x6r*g2i
							kc4 += x2r*g6r + x2i*g6i
							kc5 += x2i*g6r - x2r*g6i
							kc6 += x6r*g6r + x6i*g6i
							kc7 += x6i*g6r - x6r*g6i
							kc0 += x3r*g3r + x3i*g3i
							kc1 += x3i*g3r - x3r*g3i
							kc2 += x7r*g3r + x7i*g3i
							kc3 += x7i*g3r - x7r*g3i
							kc4 += x3r*g7r + x3i*g7i
							kc5 += x3i*g7r - x3r*g7i
							kc6 += x7r*g7r + x7i*g7i
							kc7 += x7i*g7r - x7r*g7i
							t0r = car*g0r - cai*g0i + cbr*g4r - cbi*g4i
							t0i = car*g0i + cai*g0r + cbr*g4i + cbi*g4r
							t1r = ccr*g0r - cci*g0i + cdr*g4r - cdi*g4i
							t1i = ccr*g0i + cci*g0r + cdr*g4i + cdi*g4r
							g0r, g0i, g4r, g4i = t0r, t0i, t1r, t1i
							t0r = car*g1r - cai*g1i + cbr*g5r - cbi*g5i
							t0i = car*g1i + cai*g1r + cbr*g5i + cbi*g5r
							t1r = ccr*g1r - cci*g1i + cdr*g5r - cdi*g5i
							t1i = ccr*g1i + cci*g1r + cdr*g5i + cdi*g5r
							g1r, g1i, g5r, g5i = t0r, t0i, t1r, t1i
							t0r = car*g2r - cai*g2i + cbr*g6r - cbi*g6i
							t0i = car*g2i + cai*g2r + cbr*g6i + cbi*g6r
							t1r = ccr*g2r - cci*g2i + cdr*g6r - cdi*g6i
							t1i = ccr*g2i + cci*g2r + cdr*g6i + cdi*g6r
							g2r, g2i, g6r, g6i = t0r, t0i, t1r, t1i
							t0r = car*g3r - cai*g3i + cbr*g7r - cbi*g7i
							t0i = car*g3i + cai*g3r + cbr*g7i + cbi*g7r
							t1r = ccr*g3r - cci*g3i + cdr*g7r - cdi*g7i
							t1i = ccr*g3i + cci*g3r + cdr*g7i + cdi*g7r
							g3r, g3i, g7r, g7i = t0r, t0i, t1r, t1i
							pr[i0], pim[i0] = x0r, x0i
							pr[i1], pim[i1] = x1r, x1i
							pr[i2], pim[i2] = x2r, x2i
							pr[i3], pim[i3] = x3r, x3i
							pr[i4], pim[i4] = x4r, x4i
							pr[i5], pim[i5] = x5r, x5i
							pr[i6], pim[i6] = x6r, x6i
							pr[i7], pim[i7] = x7r, x7i
							lr[i0], lim[i0] = g0r, g0i
							lr[i1], lim[i1] = g1r, g1i
							lr[i2], lim[i2] = g2r, g2i
							lr[i3], lim[i3] = g3r, g3i
							lr[i4], lim[i4] = g4r, g4i
							lr[i5], lim[i5] = g5r, g5i
							lr[i6], lim[i6] = g6r, g6i
							lr[i7], lim[i7] = g7r, g7i
						}
					}
				}
			}
		}
		K[0][0] += ka0
		K[0][1] += ka1
		K[0][2] += ka2
		K[0][3] += ka3
		K[0][4] += ka4
		K[0][5] += ka5
		K[0][6] += ka6
		K[0][7] += ka7
		K[1][0] += kb0
		K[1][1] += kb1
		K[1][2] += kb2
		K[1][3] += kb3
		K[1][4] += kb4
		K[1][5] += kb5
		K[1][6] += kb6
		K[1][7] += kb7
		K[2][0] += kc0
		K[2][1] += kc1
		K[2][2] += kc2
		K[2][3] += kc3
		K[2][4] += kc4
		K[2][5] += kc5
		K[2][6] += kc6
		K[2][7] += kc7
	})
	pi := 0
	for _, g := range in.gates {
		if g.P < 0 {
			continue
		}
		f := localBit3(g.Q, in.q, in.c, in.q2)
		d := dcoef[in.dslot+8*pi : in.dslot+8*pi+8]
		kv := &K[f]
		sc2.dth[g.P] += d[0]*kv[0] - d[1]*kv[1] + d[2]*kv[2] - d[3]*kv[3] +
			d[4]*kv[4] - d[5]*kv[5] + d[6]*kv[6] - d[7]*kv[7]
		pi++
	}
}

// revDiagRange is the fused adjoint step for an opDiag RZ chain: all chain
// members share the same logarithmic derivative diag(−i/2, +i/2), and the
// per-basis adjoint product Re⟨λ, −i·ψ⟩ is invariant under the diagonal
// inverse, so one traversal yields the common gradient T and un-applies the
// phases for every channel pair.
func revDiagRange(ws *Workspace, in *instr, coeff []float64, lo, hi int, sc bwdScratch) {
	cc, ss := coeff[in.slot], coeff[in.slot+3] // p0 = c − i·s, p1 = c + i·s
	stride := 1 << in.q
	step := stride << 1
	dim := ws.val.Dim
	var T float64
	ws.forChannelPairs(func(psi, lam *State) {
		pr, pim := psi.Re, psi.Im
		lr, lim := lam.Re, lam.Im
		for smp := lo; smp < hi; smp++ {
			off := smp * dim
			for blk := 0; blk < dim; blk += step {
				base := off + blk
				for j := base; j < base+stride; j++ {
					k := j + stride
					T += 0.5 * (lr[j]*pim[j] - lim[j]*pr[j] - lr[k]*pim[k] + lim[k]*pr[k])
					// Inverse phases: conj(p0) = c + i·s, conj(p1) = c − i·s.
					r0, i0 := pr[j], pim[j]
					pr[j] = cc*r0 - ss*i0
					pim[j] = cc*i0 + ss*r0
					r1, i1 := pr[k], pim[k]
					pr[k] = cc*r1 + ss*i1
					pim[k] = cc*i1 - ss*r1
					r0, i0 = lr[j], lim[j]
					lr[j] = cc*r0 - ss*i0
					lim[j] = cc*i0 + ss*r0
					r1, i1 = lr[k], lim[k]
					lr[k] = cc*r1 + ss*i1
					lim[k] = cc*i1 - ss*r1
				}
			}
		}
	})
	for _, p := range in.params {
		sc.dth[p] += T
	}
}

// revCtrlDiagRange is revDiagRange restricted to the control-set subspace
// (fused CRZ chains sharing one control/target pair).
func revCtrlDiagRange(ws *Workspace, in *instr, coeff []float64, lo, hi int, sc bwdScratch) {
	cc, ss := coeff[in.slot], coeff[in.slot+3]
	strideT := 1 << in.q
	stepT := strideT << 1
	cMask := 1 << in.c
	dim := ws.val.Dim
	var T float64
	ws.forChannelPairs(func(psi, lam *State) {
		pr, pim := psi.Re, psi.Im
		lr, lim := lam.Re, lam.Im
		for smp := lo; smp < hi; smp++ {
			off := smp * dim
			for blk := 0; blk < dim; blk += stepT {
				for j := blk; j < blk+strideT; j++ {
					if j&cMask == 0 {
						continue
					}
					a, b := off+j, off+j+strideT
					T += 0.5 * (lr[a]*pim[a] - lim[a]*pr[a] - lr[b]*pim[b] + lim[b]*pr[b])
					r0, i0 := pr[a], pim[a]
					pr[a] = cc*r0 - ss*i0
					pim[a] = cc*i0 + ss*r0
					r1, i1 := pr[b], pim[b]
					pr[b] = cc*r1 + ss*i1
					pim[b] = cc*i1 - ss*r1
					r0, i0 = lr[a], lim[a]
					lr[a] = cc*r0 - ss*i0
					lim[a] = cc*i0 + ss*r0
					r1, i1 = lr[b], lim[b]
					lr[b] = cc*r1 + ss*i1
					lim[b] = cc*i1 - ss*r1
				}
			}
		}
	})
	for _, p := range in.params {
		sc.dth[p] += T
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
