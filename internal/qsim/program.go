package qsim

import "math"

// This file is the compile stage of the compile/execute split: it lowers a
// Circuit plus its RX angle embedding into a flat instruction stream the
// sharded engine streams sample-block by sample-block.
//
// No CNOT is executed. A CNOT only relabels basis states, so the compiler
// tracks the CNOTs it has passed in a GF(2) basis frame (see frame) and
// emits nothing for them: a gate after them acts on the same amplitudes it
// would have touched had the CNOTs moved them, addressed through the frame.
// Each remaining instruction carries its qubits' frame masks, the kernels
// find their amplitude groups by walking the frame (groupWalk), and the
// readout and the adjoint seed read the final state through the whole
// program's frame (readout.go). Under the identity frame every walk is the
// plain bit-insertion loop.
//
// Lowering first emits one instruction per run of source gates: runs of
// adjacent single-qubit gates on the same qubit become a single 2×2 unitary
// (all-diagonal RZ chains a compile-time diagonal), consecutive CRZ gates
// sharing a control/target pair merge into a compile-time controlled
// diagonal, and each embedding block is one fused instruction, so forward
// and adjoint passes stream one instruction sequence end-to-end. The first
// embedding acts on |0…0⟩ and is built as a product state (opEmbedProd, see
// embed.go); re-upload blocks act on an entangled state and apply RX qubit
// by qubit (opEmbedAll). The single-qubit gates in front of the first
// two-qubit gate still act on that product state, under the identity frame,
// so they fold into the opEmbedProd: each qubit's gates compose into one
// 2×2 factor W_q the embedding applies to its per-qubit state. Two fusion
// passes follow.
//
// Diagonal absorption is commutation-aware: a fused diagonal group may
// absorb non-adjacent diagonal instructions by commuting them backward past
// intervening single-qubit runs whose flips leave the diagonal's bits alone
// (all diagonal operators commute with each other, so only the
// non-diagonal instructions in between constrain the move); groups collapse
// into one full-register diagonal super-op (opDiagN) whose per-basis phases
// and per-parameter derivative signs are laid out at compile time. Then
// adjacent single-qubit runs whose frame masks make them independent
// qubits pair into one Kronecker-structured 4×4 block (opU4): one pass over
// the state instead of two, on the vectorized pair kernel. A run with no
// such neighbour pairs with an identity factor on another qubit of its
// frame, and a lone CRZ chain runs as an opU4 on its qubit pair, so the
// executor knows five instruction forms (opEmbedProd, opEmbedAll, opU4,
// opDiagN, and opU2, which only a one-qubit program emits).
//
// Instruction operands live in coefficient slots that are refreshed from
// theta once per pass — per-gate trigonometry is paid once per program
// execution, not once per sample. Backward derivative operands (the dU/dθ
// matrices of fused unitaries) live in a separate slot array filled only
// when a gradient pass runs.

// opcode enumerates fused-program instructions.
type opcode uint8

// Opcode values are hashed into ProgramDigest, so they stay fixed: 0 (the
// per-qubit embedding), 8 (a dense 8×8 three-qubit block) and 9 (three
// Kronecker-structured 2×2 factors) belonged to earlier compilers and are
// never emitted. opDiag, opCNOT, opCtrlDiag and opPerm8 are compile-time
// only or gone: CNOTs become frame changes, a diagonal chain is absorbed
// into opDiagN or lowered onto opU4 (or opU2 on one qubit), and no CNOT
// permutation is built any more.
const (
	opEmbedAll  opcode = iota + 1 // re-upload embedding block: RX on each qubit in turn
	opU2                          // 2×2 unitary on Q (one-qubit programs only); 8 coefficient floats
	opDiag                        // compile time only: an RZ chain on Q
	_                             // 4: once an executed CNOT
	opCtrlDiag                    // compile time only: a CRZ chain on target Q, control C
	opU4                          // 4×4 unitary on qubit pair (Q=low, C=high); 32 floats
	opDiagN                       // full-register diagonal; 2·dim floats
	_                             // 8: reserved
	_                             // 9: reserved
	_                             // 10: once a three-qubit CNOT permutation
	opEmbedProd                   // first embedding block, built as a product state on |0…0⟩
)

// instr is one fused instruction. slot indexes the program's forward
// coefficient array and dslot the backward derivative array; gates are the
// source gates the instruction was fused from, kept to refresh the slots
// when theta changes.
type instr struct {
	op     opcode
	q, c   int // primary/secondary logical qubit (meaning depends on op; -1 unused)
	slot   int
	dslot  int
	tslot  int    // opDiagN: index of this instr's gradient accumulator
	pslot  int    // opU4: offset of its packed U and U† in the pass's pack table
	gates  []Gate // source gates in application order
	params []int  // theta indices of parametrized source gates, in order
	signs  []int8 // opDiagN: per (param, physical basis) derivative sign in {-1,0,+1}

	fr frame     // the frame the source gates act in (embeddings, diagonals, runs)
	v  [2]vqubit // opU4: the vqubits of local bits 0 and 1
	// opDiagN: per source gate, the read rows of its target and control (0
	// for an RZ), which layout turns into the sign table.
	rows [][2]int
	// walks locate the amplitude groups: opU4's one pair, opEmbedAll's one
	// per qubit.
	walks []groupWalk
}

// Program is a compiled circuit: the fused instruction stream (driving both
// the forward and the adjoint backward) and the coefficient-slot layout.
// Compilation depends only on circuit structure; coefficients are filled
// per pass by FillCoeffs and FillDerivCoeffs.
type Program struct {
	circ   *Circuit
	ins    []instr
	ncoef  int // forward coefficient floats
	nderiv int // backward derivative floats
	ndiag  int // number of opDiagN instructions (gradient accumulators)
	npack  int // packed opU4 matrix floats (packCoeffs)

	// cnots are the circuit's CNOTs in order, which no instruction runs:
	// readout is the frame they leave, through which the readout and the
	// adjoint seed read the final state.
	cnots   []Gate
	readout basisWalk
}

// compileLevel is the fusion level CompileProgram implements: the only one.
// contentHash still mixes it in, so digests stay what they were.
const compileLevel = 3

// CompileProgram lowers circ (and its embedding placement, honouring data
// re-uploading) into a fused program: CNOTs tracked in the basis frame,
// commutation-aware diagonal absorption and paired single-qubit runs.
func CompileProgram(circ *Circuit) *Program {
	p := fuseProgram(circ)
	p.layout()
	return p
}

// fuseProgram builds the fused instruction stream and each instruction's
// parameter list; layout then sizes and fills the tables.
func fuseProgram(circ *Circuit) *Program {
	p := &Program{circ: circ}
	fr := identityFrame(circ.NumQubits)
	for i, seg := range circ.segments() {
		p.addEmbed(fr)
		if i == 0 {
			seg = p.foldLeading(seg)
		}
		fr = p.addGates(seg, fr)
	}
	p.readout = newReadoutMap(p.cnots)
	p.fuseDiagGroups()
	p.pairSingles()
	for i := range p.ins {
		for _, g := range p.ins[i].gates {
			if g.P >= 0 {
				p.ins[i].params = append(p.ins[i].params, g.P)
			}
		}
	}
	return p
}

// diagTableBytes is what layout and a shard run allocate for the
// full-register diagonals, the only tables that grow with 2^nq per
// instruction: per opDiagN, 2·dim coefficient floats, a dim-float gradient
// accumulator, and a sign byte per (parameter, basis state).
func (p *Program) diagTableBytes() int {
	n := 0
	for _, in := range p.ins {
		if in.op == opDiagN {
			n += (3*8 + len(in.params)) << p.circ.NumQubits
		}
	}
	return n
}

// Level reports the fusion level the program was compiled at: always 3.
func (p *Program) Level() int { return compileLevel }

// NumInstructions reports the executed instruction stream length (embedding
// ops included) — the quantity gate fusion shrinks.
func (p *Program) NumInstructions() int { return len(p.ins) }

// NumCoeffs reports the forward coefficient-slot floats a pass must provide.
func (p *Program) NumCoeffs() int { return p.ncoef }

// NumDiagAccums reports the number of fused full-register diagonal
// instructions, each of which owns one per-basis gradient accumulator of
// 2^nq floats — the stride of the sharded and dist engines' diagT partials.
func (p *Program) NumDiagAccums() int { return p.ndiag }

// ProgramDigest summarizes a compiled program. Compilation is a pure
// function of the circuit, so two processes that compiled the same circuit
// and agree on the digest are executing the same instruction stream — the
// dist handshake exchanges it to pin coordinator and worker to identical
// programs before any shard is shipped. Beyond the
// shape counts, Hash fingerprints the instruction stream's content AND a
// coefficient probe (FillCoeffs/FillDerivCoeffs evaluated at a fixed theta),
// so a worker whose program differs in anything but shape — a circuit
// garbled in transit, a compile that is not deterministic — is refused at
// handshake instead of silently returning different numbers. (Amplitude-kernel drift is the one thing a
// compile-time digest cannot see; the cross-engine parity tests own that.)
type ProgramDigest struct {
	Instructions int
	Coeffs       int
	DerivCoeffs  int
	DiagAccums   int
	Hash         uint64
}

// Digest returns the program's summary for cross-process validation.
func (p *Program) Digest() ProgramDigest {
	return ProgramDigest{
		Instructions: len(p.ins),
		Coeffs:       p.ncoef,
		DerivCoeffs:  p.nderiv,
		DiagAccums:   p.ndiag,
		Hash:         p.contentHash(),
	}
}

// contentHash is an FNV-1a fingerprint of the compiled instruction stream
// (opcodes, operands, slot layout, source gates, sign tables, frame masks)
// followed by a numerical probe: the forward and derivative coefficient
// slots evaluated at a fixed, structure-independent theta, as raw IEEE
// bits. Everything hashed is a deterministic pure function of the circuit —
// no map iteration, no addresses — so equal programs hash equal across
// processes and binaries.
func (p *Program) contentHash() uint64 {
	const (
		offset64 = 14695981039346844037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte1 := func(b byte) {
		h = (h ^ uint64(b)) * prime64
	}
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			byte1(byte(v >> (8 * i)))
		}
	}
	num := func(v int) { word(uint64(int64(v))) }
	num(compileLevel)
	num(p.circ.NumQubits)
	num(len(p.ins))
	for i := range p.ins {
		in := &p.ins[i]
		byte1(byte(in.op))
		num(in.q)
		num(in.c)
		num(0) // once a third qubit
		num(in.slot)
		num(in.dslot)
		num(in.tslot)
		byte1(0) // once a per-instruction adjoint flag; kept so digests stay comparable
		num(len(in.gates))
		for _, g := range in.gates {
			byte1(byte(g.Kind))
			num(g.Q)
			num(g.C)
			num(g.P)
		}
		num(len(in.params))
		for _, pi := range in.params {
			num(pi)
		}
		num(len(in.signs))
		for _, s := range in.signs {
			byte1(byte(s))
		}
		word(0) // once a permutation table
		num(0)  // and its cycle count
	}
	// Only a program with CNOTs has frames other than the identity, so only
	// its digest covers them and every other digest reads as before frames
	// existed.
	if len(p.cnots) > 0 {
		num(len(p.cnots))
		for _, g := range p.cnots {
			num(g.Q)
			num(g.C)
		}
		for i := range p.ins {
			in := &p.ins[i]
			for _, v := range in.v {
				num(v.r)
				num(v.m)
			}
			for _, v := range in.fr {
				num(v.r)
				num(v.m)
			}
		}
	}
	// Coefficient probe at theta_i = sin(i+1): exercises every rotation's
	// trigonometry and every fused block's matrix products.
	theta := make([]float64, p.circ.NumParams)
	for i := range theta {
		theta[i] = math.Sin(float64(i + 1))
	}
	coeff := make([]float64, p.ncoef)
	p.FillCoeffs(theta, coeff)
	for _, v := range coeff {
		word(math.Float64bits(v))
	}
	if p.nderiv > 0 {
		dcoef := make([]float64, p.nderiv)
		p.FillDerivCoeffs(theta, dcoef)
		for _, v := range dcoef {
			word(math.Float64bits(v))
		}
	}
	return h
}

// addEmbed emits an embedding block in frame fr: the first one starts the
// program on |0…0⟩, so it is built as a product state; later (re-upload)
// blocks rotate an entangled state.
func (p *Program) addEmbed(fr frame) {
	op := opEmbedAll
	if len(p.ins) == 0 {
		op = opEmbedProd
	}
	p.ins = append(p.ins, instr{op: op, q: -1, c: -1, fr: fr})
}

// foldLeading moves the single-qubit gates in front of seg's first
// two-qubit gate (CNOT or CRZ) into the program's opEmbedProd and returns
// the rest of seg. No CNOT has been passed there, so every gate folded acts
// on its own qubit's factor of the product state.
func (p *Program) foldLeading(seg []Gate) []Gate {
	i := 0
	for i < len(seg) && isSingleQubit(seg[i]) {
		i++
	}
	p.ins[0].gates = seg[:i]
	return seg[i:]
}

// reembeds reports whether the program holds an opEmbedAll (a re-upload
// block), the one instruction whose forward needs the scr1 channel.
func (p *Program) reembeds() bool {
	for i := range p.ins {
		if p.ins[i].op == opEmbedAll {
			return true
		}
	}
	return false
}

func isSingleQubit(g Gate) bool {
	return g.Kind == RX || g.Kind == RY || g.Kind == RZ
}

// addGates emits the instructions of one segment in frame fr and returns
// the frame its CNOTs leave, recording each CNOT in p.cnots.
func (p *Program) addGates(gates []Gate, fr frame) frame {
	for i := 0; i < len(gates); {
		g := gates[i]
		switch {
		case isSingleQubit(g):
			j := i + 1
			for j < len(gates) && isSingleQubit(gates[j]) && gates[j].Q == g.Q {
				j++
			}
			run := gates[i:j]
			op := opDiag
			for _, r := range run {
				if r.Kind != RZ {
					op = opU2
					break
				}
			}
			p.ins = append(p.ins, instr{op: op, q: g.Q, c: -1, gates: run, fr: fr})
			i = j
		case g.Kind == CNOT:
			p.cnots = append(p.cnots, g)
			fr = fr.cnot(g.C, g.Q)
			i++
		default: // CRZ
			j := i + 1
			for j < len(gates) && gates[j].Kind == CRZ && gates[j].Q == g.Q && gates[j].C == g.C {
				j++
			}
			p.ins = append(p.ins, instr{op: opCtrlDiag, q: g.Q, c: g.C, gates: gates[i:j], fr: fr})
			i = j
		}
	}
	return fr
}

// fuseDiagGroups collapses groups of diagonal instructions (RZ chains, CRZ
// meshes) into full-register diagonal super-ops. A group may absorb
// NON-adjacent members by commuting them backward past the single-qubit
// runs in between. Diagonal operators all commute with each other, and a
// diagonal commutes with a run exactly when the run's flip leaves every
// bit the diagonal reads alone; so a diagonal instruction joins a group
// when none of its read rows has odd parity with the flip of any run seen
// since the group opened (the group's blocked flips), and the move is
// exact. Under one frame that is the support test: the diagonal touches
// none of the runs' qubits. Groups of ≥ 2 members collapse into one
// full-register diagonal super-op emitted at the first member's position;
// singleton groups stay in place (and are lowered by pairSingles).
func (p *Program) fuseDiagGroups() {
	type group struct {
		members []int
		blocked []int // flip masks of the runs seen since the group opened
	}
	var groups, open []*group
	reads := func(in *instr) [2]int {
		r := [2]int{in.fr[in.q].r, 0}
		if in.c >= 0 {
			r[1] = in.fr[in.c].r
		}
		return r
	}
	commutes := func(r [2]int, blocked []int) bool {
		for _, m := range blocked {
			if parity(r[0]&m) != 0 || parity(r[1]&m) != 0 {
				return false
			}
		}
		return true
	}
	for idx := range p.ins {
		in := &p.ins[idx]
		switch in.op {
		case opDiag, opCtrlDiag:
			r := reads(in)
			joined := false
			for _, g := range open {
				if commutes(r, g.blocked) {
					g.members = append(g.members, idx)
					joined = true
					break
				}
			}
			if !joined {
				g := &group{members: []int{idx}}
				open = append(open, g)
				groups = append(groups, g)
			}
		case opEmbedProd, opEmbedAll: // embedding barriers close every group
			open = open[:0]
		default: // opU2: a single-qubit run
			for _, g := range open {
				g.blocked = append(g.blocked, in.fr[in.q].m)
			}
		}
	}
	drop := make([]bool, len(p.ins))
	fused := make(map[int]instr)
	for _, g := range groups {
		if len(g.members) < 2 {
			continue
		}
		var gates []Gate
		var rows [][2]int
		for _, m := range g.members {
			gates = append(gates, p.ins[m].gates...)
			for range p.ins[m].gates {
				rows = append(rows, reads(&p.ins[m]))
			}
		}
		fused[g.members[0]] = instr{op: opDiagN, q: -1, c: -1, gates: gates, rows: rows}
		for _, m := range g.members[1:] {
			drop[m] = true
		}
	}
	out := p.ins[:0:0]
	for idx := range p.ins {
		if drop[idx] {
			continue
		}
		if in, ok := fused[idx]; ok {
			out = append(out, in)
			continue
		}
		out = append(out, p.ins[idx])
	}
	p.ins = out
}

// pairSingles fuses each two adjacent surviving single-qubit instructions
// (opU2, opDiag) on independent qubits into one pair block (opU4, q < c)
// whose gates keep their stream order. The two factors act on different
// tensor factors of the state, so the block is their Kronecker product and
// the move is exact; it is what collapses the rotation walls, within a
// layer and across the CNOTs between layers. The pending instruction stays
// unpaired when the next one is on the same logical qubit or not
// independent of it, and anything else ends the pairing. An unpaired run
// pairs with an identity factor on another qubit of its frame (the lowest
// one), so it too runs on the pair kernel; only a one-qubit program, which
// has no other qubit, emits it as an opU2. A lone CRZ chain becomes an opU4
// on its qubit pair.
func (p *Program) pairSingles() {
	out := p.ins[:0:0]
	pend := -1 // index of the unpaired single-qubit instruction, if any
	flush := func() {
		if pend < 0 {
			return
		}
		in := p.ins[pend]
		pend = -1
		if p.circ.NumQubits == 1 {
			in.op = opU2
			out = append(out, in)
			return
		}
		other := 0
		if in.q == 0 {
			other = 1
		}
		out = append(out, u4(in.q, other, in.fr[in.q], in.fr[other], in.gates))
	}
	for idx := range p.ins {
		in := &p.ins[idx]
		switch {
		case in.op == opCtrlDiag:
			flush()
			out = append(out, u4(in.q, in.c, in.fr[in.q], in.fr[in.c], in.gates))
		case in.op != opU2 && in.op != opDiag:
			flush()
			out = append(out, *in)
		case pend < 0:
			pend = idx
		case p.ins[pend].q == in.q || !independent(p.ins[pend].fr[p.ins[pend].q], in.fr[in.q]):
			flush()
			pend = idx
		default:
			a := &p.ins[pend]
			gates := append(append([]Gate(nil), a.gates...), in.gates...)
			out = append(out, u4(a.q, in.q, a.fr[a.q], in.fr[in.q], gates))
			pend = -1
		}
	}
	flush()
	p.ins = out
}

// u4 returns the opU4 running gates on logical qubits qa and qb, addressed
// as va and vb, with the lower logical qubit as local bit 0.
func u4(qa, qb int, va, vb vqubit, gates []Gate) instr {
	if qa > qb {
		qa, qb, va, vb = qb, qa, vb, va
	}
	return instr{op: opU4, q: qa, c: qb, gates: gates, v: [2]vqubit{va, vb}}
}

// layout assigns coefficient slots, derivative slots and pack slots, builds
// the group walks of the pair blocks and the re-upload embeddings, and lays
// out the full-register diagonals' derivative sign tables over physical
// basis states, reading each source gate's bits through its frame rows.
func (p *Program) layout() {
	nq := p.circ.NumQubits
	dim := 1 << nq
	for i := range p.ins {
		in := &p.ins[i]
		switch in.op {
		case opEmbedProd:
			// An embedding that folded no gate takes no slots (it runs on
			// identWall), so a program whose first gate is a two-qubit gate
			// lays out and hashes the same with or without the fold.
			if len(in.gates) > 0 {
				in.slot = p.ncoef
				p.ncoef += 8 * nq
				in.dslot = p.nderiv
				p.nderiv += 8 * len(in.params)
			}
		case opEmbedAll:
			for _, v := range in.fr {
				in.walks = append(in.walks, newGroupWalk(nq, v))
			}
		case opU2:
			in.slot = p.ncoef
			p.ncoef += 8
			in.dslot = p.nderiv
			p.nderiv += 8 * len(in.params)
		case opU4:
			in.slot = p.ncoef
			p.ncoef += 32
			in.dslot = p.nderiv
			p.nderiv += 32 * len(in.params)
			in.pslot = p.npack
			p.npack += 64
			in.walks = []groupWalk{newGroupWalk(nq, in.v[0], in.v[1])}
		case opDiagN:
			in.slot = p.ncoef
			p.ncoef += 2 * dim
			in.tslot = p.ndiag
			p.ndiag++
			in.signs = make([]int8, len(in.params)*dim)
			pi := 0
			for gi, g := range in.gates {
				if g.P < 0 {
					continue
				}
				row := in.signs[pi*dim : (pi+1)*dim]
				rt, rc := in.rows[gi][0], in.rows[gi][1]
				for j := 0; j < dim; j++ {
					switch {
					case rc != 0 && parity(rc&j) == 0:
					case parity(rt&j) == 0:
						row[j] = 1
					default:
						row[j] = -1
					}
				}
				pi++
			}
		}
	}
}

// mat2 is a 2×2 complex matrix as interleaved re/im pairs, row-major:
// [u00r, u00i, u01r, u01i, u10r, u10i, u11r, u11i].
type mat2 [8]float64

var ident2 = mat2{1, 0, 0, 0, 0, 0, 1, 0}

// gateMat2 returns the 2×2 matrix of a single-qubit rotation gate.
func gateMat2(g Gate, theta []float64) mat2 {
	c, s := cosHalf(theta[g.P]), sinHalf(theta[g.P])
	switch g.Kind {
	case RX:
		return mat2{c, 0, 0, -s, 0, -s, c, 0}
	case RY:
		return mat2{c, 0, -s, 0, s, 0, c, 0}
	case RZ:
		return mat2{c, -s, 0, 0, 0, 0, c, s}
	}
	panic("qsim: gateMat2 on non-single-qubit gate")
}

// dgateMat2 returns dU/dθ of a single-qubit rotation gate.
func dgateMat2(g Gate, theta []float64) mat2 {
	c, s := cosHalf(theta[g.P]), sinHalf(theta[g.P])
	switch g.Kind {
	case RX:
		return mat2{-s / 2, 0, 0, -c / 2, 0, -c / 2, -s / 2, 0}
	case RY:
		return mat2{-s / 2, 0, -c / 2, 0, c / 2, 0, -s / 2, 0}
	case RZ:
		return mat2{-s / 2, -c / 2, 0, 0, 0, 0, -s / 2, c / 2}
	}
	panic("qsim: dgateMat2 on non-single-qubit gate")
}

// mul2 returns a·b.
func mul2(a, b mat2) mat2 {
	var out mat2
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			var re, im float64
			for k := 0; k < 2; k++ {
				ar, ai := a[r*4+k*2], a[r*4+k*2+1]
				br, bi := b[k*4+c*2], b[k*4+c*2+1]
				re += ar*br - ai*bi
				im += ar*bi + ai*br
			}
			out[r*4+c*2], out[r*4+c*2+1] = re, im
		}
	}
	return out
}

// mat4 is a 4×4 complex matrix as interleaved re/im pairs, row-major; the
// local basis index of the 4-dim subspace has the pair's low qubit as bit 0.
type mat4 [32]float64

var ident4 = mat4{
	1, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 1, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 1, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 1, 0,
}

// mul4 returns a·b.
func mul4(a, b mat4) mat4 {
	var out mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var re, im float64
			for k := 0; k < 4; k++ {
				ar, ai := a[(r*4+k)*2], a[(r*4+k)*2+1]
				br, bi := b[(k*4+c)*2], b[(k*4+c)*2+1]
				re += ar*br - ai*bi
				im += ar*bi + ai*br
			}
			out[(r*4+c)*2], out[(r*4+c)*2+1] = re, im
		}
	}
	return out
}

// embed2in4 lifts a 2×2 matrix acting on local bit pos (0 or 1) into the
// 4-dim pair subspace.
func embed2in4(u mat2, pos int) mat4 {
	var out mat4
	mask := 1 << pos
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if r&^mask != c&^mask {
				continue
			}
			rb, cb := (r>>pos)&1, (c>>pos)&1
			out[(r*4+c)*2] = u[rb*4+cb*2]
			out[(r*4+c)*2+1] = u[rb*4+cb*2+1]
		}
	}
	return out
}

// localBit returns the local bit position of qubit q within pair (qa, qb).
func localBit(q, qa, qb int) int {
	if q == qa {
		return 0
	}
	if q == qb {
		return 1
	}
	panic("qsim: gate qubit outside fused pair")
}

// gateMat4 returns the 4×4 matrix of gate g within the pair (qa, qb).
func gateMat4(g Gate, theta []float64, qa, qb int) mat4 {
	switch g.Kind {
	case RX, RY, RZ:
		return embed2in4(gateMat2(g, theta), localBit(g.Q, qa, qb))
	case CRZ:
		c, s := cosHalf(theta[g.P]), sinHalf(theta[g.P])
		pc, pt := localBit(g.C, qa, qb), localBit(g.Q, qa, qb)
		var m mat4
		for j := 0; j < 4; j++ {
			switch {
			case j&(1<<pc) == 0:
				m[(j*4+j)*2] = 1
			case j&(1<<pt) == 0:
				m[(j*4+j)*2], m[(j*4+j)*2+1] = c, -s
			default:
				m[(j*4+j)*2], m[(j*4+j)*2+1] = c, s
			}
		}
		return m
	}
	panic("qsim: gateMat4 on unsupported gate")
}

// dgateMat4 returns dU/dθ of gate g within the pair (qa, qb).
func dgateMat4(g Gate, theta []float64, qa, qb int) mat4 {
	if g.Kind == CRZ {
		c, s := cosHalf(theta[g.P]), sinHalf(theta[g.P])
		pc, pt := localBit(g.C, qa, qb), localBit(g.Q, qa, qb)
		var m mat4
		for j := 0; j < 4; j++ {
			if j&(1<<pc) == 0 {
				continue
			}
			if j&(1<<pt) == 0 {
				m[(j*4+j)*2], m[(j*4+j)*2+1] = -s/2, -c/2
			} else {
				m[(j*4+j)*2], m[(j*4+j)*2+1] = -s/2, c/2
			}
		}
		return m
	}
	return embed2in4(dgateMat2(g, theta), localBit(g.Q, qa, qb))
}

// runMat2 returns the product U_k·…·U_1 of the gates g1, …, gk (in
// application order) among gates that act on qubit q, or ident2 if none do.
func runMat2(gates []Gate, q int, theta []float64) mat2 {
	u, first := ident2, true
	for _, g := range gates {
		if g.Q != q {
			continue
		}
		if first {
			u, first = gateMat2(g, theta), false
		} else {
			u = mul2(gateMat2(g, theta), u)
		}
	}
	return u
}

// runDeriv2 returns dU/dθ of runMat2(gates, q, θ) for the parametrized
// gate gates[i] on q: G_k·…·G_{i+1}·(dG_i/dθ)·G_{i-1}·…·G_1 over q's gates.
func runDeriv2(gates []Gate, i int, theta []float64) mat2 {
	q := gates[i].Q
	pre := ident2
	for _, g := range gates[:i] {
		if g.Q == q {
			pre = mul2(gateMat2(g, theta), pre)
		}
	}
	suf := ident2
	for j := len(gates) - 1; j > i; j-- {
		if gates[j].Q == q {
			suf = mul2(suf, gateMat2(gates[j], theta))
		}
	}
	return mul2(suf, mul2(dgateMat2(gates[i], theta), pre))
}

// FillCoeffs refreshes the forward coefficient slots for the given
// parameters; dst must have at least NumCoeffs elements. For a fused run
// g1, g2, …, gk (in application order) the slot holds the product
// U_k·…·U_2·U_1; an opEmbedProd's slot holds one such product W_q per
// qubit q, over the gates it folded on q (the identity on a qubit with
// none).
func (p *Program) FillCoeffs(theta, dst []float64) {
	dim := 1 << p.circ.NumQubits
	for _, in := range p.ins {
		switch in.op {
		case opEmbedProd:
			if len(in.gates) == 0 {
				continue
			}
			for q := 0; q < p.circ.NumQubits; q++ {
				w := runMat2(in.gates, q, theta)
				copy(dst[in.slot+8*q:in.slot+8*q+8], w[:])
			}
		case opU2:
			u := runMat2(in.gates, in.q, theta)
			copy(dst[in.slot:in.slot+8], u[:])
		case opU4:
			u := gateMat4(in.gates[0], theta, in.q, in.c)
			for _, g := range in.gates[1:] {
				u = mul4(gateMat4(g, theta, in.q, in.c), u)
			}
			copy(dst[in.slot:in.slot+32], u[:])
		case opDiagN:
			// Per-basis half-angle accumulation via the sign table, then one
			// cos/sin per basis state: phase_j = exp(−i·Σ s_pj·θ_p/2).
			ph := dst[in.slot : in.slot+2*dim]
			for j := 0; j < dim; j++ {
				ph[2*j] = 0
			}
			for pi, pidx := range in.params {
				row := in.signs[pi*dim : (pi+1)*dim]
				half := theta[pidx] / 2
				for j := 0; j < dim; j++ {
					ph[2*j] += float64(row[j]) * half
				}
			}
			for j := 0; j < dim; j++ {
				a := ph[2*j]
				ph[2*j] = math.Cos(a)
				ph[2*j+1] = -math.Sin(a)
			}
		}
	}
}

// FillDerivCoeffs refreshes the backward derivative slots: for every
// parametrized source gate i of a fused unitary U = G_k·…·G_1 it stores
// dU/dθ_i = G_k·…·G_{i+1}·(dG_i/dθ)·G_{i-1}·…·G_1, so the adjoint kernel
// can take every gradient of a fused block in a single traversal. An
// opEmbedProd's gates lay out like an opU2's, each one's slot the
// derivative of its own qubit's W_q. dst must have at least nderiv
// elements. Only gradient passes pay this cost.
func (p *Program) FillDerivCoeffs(theta, dst []float64) {
	for _, in := range p.ins {
		if len(in.params) == 0 {
			continue
		}
		switch in.op {
		case opU2, opEmbedProd:
			di := 0
			for i, g := range in.gates {
				if g.P >= 0 {
					d := runDeriv2(in.gates, i, theta)
					copy(dst[in.dslot+8*di:in.dslot+8*di+8], d[:])
					di++
				}
			}
		case opU4:
			k := len(in.gates)
			mats := make([]mat4, k)
			for i, g := range in.gates {
				mats[i] = gateMat4(g, theta, in.q, in.c)
			}
			suf := make([]mat4, k)
			suf[k-1] = ident4
			for i := k - 2; i >= 0; i-- {
				suf[i] = mul4(suf[i+1], mats[i+1])
			}
			pre := ident4
			di := 0
			for i, g := range in.gates {
				if g.P >= 0 {
					d := mul4(suf[i], mul4(dgateMat4(g, theta, in.q, in.c), pre))
					copy(dst[in.dslot+32*di:in.dslot+32*di+32], d[:])
					di++
				}
				pre = mul4(mats[i], pre)
			}
		}
	}
}

// packCoeffs column-packs every opU4's matrix U and its adjoint U† from the
// forward coefficients coeff (row-major, interleaved re/im pairs) into pack,
// 64 floats from the instruction's pslot: U, then U†. In a packed matrix pk,
// pk[8c:8c+4] holds column c's real parts and pk[8c+4:8c+8] its imaginary
// parts, rows ascending, so one YMM load gives a column across the four
// output rows. It runs once per theta (coeffTables.fill), so no kernel
// call packs a matrix.
// pack must have at least npack elements.
func (p *Program) packCoeffs(coeff, pack []float64) {
	for i := range p.ins {
		in := &p.ins[i]
		if in.op != opU4 {
			continue
		}
		u := coeff[in.slot : in.slot+32]
		pk := pack[in.pslot : in.pslot+64]
		for c := 0; c < 4; c++ {
			for r := 0; r < 4; r++ {
				pk[8*c+r], pk[8*c+4+r] = u[8*r+2*c], u[8*r+2*c+1]      // U[r,c]
				pk[32+8*c+r], pk[36+8*c+r] = u[8*c+2*r], -u[8*c+2*r+1] // U†[r,c] = conj U[c,r]
			}
		}
	}
}
