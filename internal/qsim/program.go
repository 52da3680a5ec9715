package qsim

import (
	"math"
	"math/bits"
	"sort"
)

// This file is the compile stage of the compile/execute split: it lowers a
// Circuit plus its RX angle embedding into a flat instruction stream the
// sharded engine streams sample-block by sample-block.
//
// Lowering first emits one instruction per run of source gates: runs of
// adjacent single-qubit gates on the same qubit become a single 2×2 unitary
// (all-diagonal RZ chains a compile-time diagonal), consecutive CRZ gates
// sharing a control/target pair merge into a compile-time controlled
// diagonal, and each embedding block is one fused instruction, so forward
// and adjoint passes stream one instruction sequence end-to-end. The first
// embedding acts on |0…0⟩ and is built as a product state (opEmbedProd, see
// embed.go); re-upload blocks act on an entangled state and apply RX qubit
// by qubit (opEmbedAll). Three fusion passes follow.
//
// Diagonal absorption is commutation-aware: a fused diagonal group may
// absorb non-adjacent diagonal instructions by commuting them past
// intervening blocks with disjoint support (all diagonal operators commute
// with each other, so only the non-diagonal instructions in between
// constrain the move); groups collapse into one full-register diagonal
// super-op (opDiagN) whose per-basis phases and per-parameter derivative
// signs are laid out at compile time. Block fusion then greedily absorbs
// neighbouring single-qubit runs into two-qubit instructions (4×4 opU4) and
// grows CNOT-only blocks to qubit triples: a CNOT sharing a qubit with an
// open CNOT-only pair block extends it to a compile-time basis permutation
// (opPerm8), collapsing the all-pairs CNOT sweeps pair fusion alone leaves
// as bare instructions. Then adjacent leftover single-qubit instructions on
// two distinct qubits pair into one Kronecker-structured 4×4 block (opU4),
// so the rotation walls entangler fusion cannot touch run on the vectorized
// pair kernel: one pass over the state instead of two. A diagonal chain no
// pass absorbed runs as the general form of its width: a lone RZ chain as
// an opU2, a lone CRZ chain as an opU4 on its qubit pair, so the executor
// knows seven instruction forms (opEmbedProd, opEmbedAll, opU2, opU4,
// opCNOT, opPerm8, opDiagN). Last, the permutation instructions (opCNOT,
// opPerm8) that end the stream fold into the program's readout map, which
// the readout and the adjoint seed read the final state through
// (readout.go), so neither pass runs them.
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
// never emitted. opDiag and opCtrlDiag are compile-time only: the fusion
// passes absorb them into opDiagN or a pair block, or lower a lone one onto
// opU2 (pairSingles) or opU4 (fuseBlocks).
const (
	opEmbedAll  opcode = iota + 1 // re-upload embedding block: RX on each qubit in turn
	opU2                          // 2×2 unitary on Q; 8 coefficient floats
	opDiag                        // compile time only: an RZ chain on Q
	opCNOT                        // CNOT control C, target Q; no coefficients
	opCtrlDiag                    // compile time only: a CRZ chain on target Q, control C
	opU4                          // 4×4 unitary on qubit pair (Q=low, C=high); 32 floats
	opDiagN                       // full-register diagonal; 2·dim floats
	_                             // 8: reserved
	_                             // 9: reserved
	opPerm8                       // compile-time basis permutation on (Q, C, Q2); no floats
	opEmbedProd                   // first embedding block, built as a product state on |0…0⟩
)

// instr is one fused instruction. slot indexes the program's forward
// coefficient array and dslot the backward derivative array; gates are the
// source gates the instruction was fused from, kept to refresh the slots
// when theta changes.
type instr struct {
	op     opcode
	q, c   int // primary/secondary qubit (meaning depends on op; -1 unused)
	q2     int // third qubit of three-qubit ops (q < c < q2); 0 otherwise
	slot   int
	dslot  int
	tslot  int      // opDiagN: index of this instr's gradient accumulator
	gates  []Gate   // source gates in application order
	params []int    // theta indices of parametrized source gates, in order
	signs  []int8   // opDiagN: per (param, basis) derivative sign in {-1,0,+1}
	perm   [8]uint8 // opPerm8: local basis map, new[perm[j]] = old[j]
	// opPerm8: the permutation's non-trivial cycles and their inverses, so
	// the kernels rotate only the amplitudes that actually move.
	cycles, invCycles [][]uint8
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

	// folded holds the permutation instructions that ended the fused
	// stream, which readout applies instead (foldTrailingPerms); they run
	// in neither pass and are kept for the digest.
	folded  []instr
	readout readoutMap
}

// compileLevel is the fusion level CompileProgram implements. It travels in
// ProgramDigest and the dist handshake, whose frame layout fixes it at 3.
const compileLevel = 3

// CompileProgram lowers circ (and its embedding placement, honouring data
// re-uploading) into a fused program: commutation-aware diagonal
// absorption, pair blocks, three-qubit CNOT permutations, and paired
// single-qubit runs.
func CompileProgram(circ *Circuit) *Program {
	p := fuseProgram(circ)
	p.layout()
	return p
}

// fuseProgram builds the fused instruction stream and each instruction's
// parameter list; layout then sizes and fills the tables.
func fuseProgram(circ *Circuit) *Program {
	p := &Program{circ: circ}
	for _, seg := range circ.segments() {
		p.addEmbed()
		p.addGates(seg)
	}
	p.fuseDiagGroups()
	p.fuseBlocks()
	p.pairSingles()
	p.foldTrailingPerms()
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
// ops included, permutations folded into the readout not) — the quantity
// gate fusion shrinks.
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
// so a version-skewed worker whose compiler fuses differently or whose
// coefficient math drifted is refused at handshake instead of silently
// returning different numbers. (Amplitude-kernel drift is the one thing a
// compile-time digest cannot see; the cross-engine parity tests own that.)
type ProgramDigest struct {
	Level        int
	Instructions int
	Coeffs       int
	DerivCoeffs  int
	DiagAccums   int
	Hash         uint64
}

// Digest returns the program's summary for cross-process validation.
func (p *Program) Digest() ProgramDigest {
	return ProgramDigest{
		Level:        compileLevel,
		Instructions: len(p.ins),
		Coeffs:       p.ncoef,
		DerivCoeffs:  p.nderiv,
		DiagAccums:   p.ndiag,
		Hash:         p.contentHash(),
	}
}

// contentHash is an FNV-1a fingerprint of the compiled instruction stream
// (opcodes, operands, slot layout, source gates, sign tables, permutation
// cycles) followed by a numerical probe: the forward and derivative
// coefficient slots evaluated at a fixed, structure-independent theta, as
// raw IEEE bits. Everything hashed is a deterministic pure function of
// the circuit — no map iteration, no addresses — so equal programs
// hash equal across processes and binaries.
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
	instrHash := func(in *instr) {
		byte1(byte(in.op))
		num(in.q)
		num(in.c)
		num(in.q2)
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
		for _, b := range in.perm {
			byte1(b)
		}
		num(len(in.cycles))
		for _, cyc := range in.cycles {
			num(len(cyc))
			for _, b := range cyc {
				byte1(b)
			}
		}
	}
	num(len(p.ins))
	for i := range p.ins {
		instrHash(&p.ins[i])
	}
	// Only a program that folded permutations into its readout hashes
	// them, so every other digest reads as before the fold existed.
	if len(p.folded) > 0 {
		num(len(p.folded))
		for i := range p.folded {
			instrHash(&p.folded[i])
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

// addEmbed emits an embedding block: the first one starts the program on
// |0…0⟩, so it is built as a product state; later (re-upload) blocks
// rotate an entangled state.
func (p *Program) addEmbed() {
	op := opEmbedAll
	if len(p.ins) == 0 {
		op = opEmbedProd
	}
	p.ins = append(p.ins, instr{op: op, q: -1, c: -1})
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

func (p *Program) addGates(gates []Gate) {
	for i := 0; i < len(gates); {
		g := gates[i]
		switch {
		case isSingleQubit(g):
			j := i + 1
			for j < len(gates) && isSingleQubit(gates[j]) && gates[j].Q == g.Q {
				j++
			}
			run := gates[i:j]
			allDiag := true
			for _, r := range run {
				if r.Kind != RZ {
					allDiag = false
					break
				}
			}
			if allDiag {
				p.ins = append(p.ins, instr{op: opDiag, q: g.Q, c: -1, gates: run})
			} else {
				p.ins = append(p.ins, instr{op: opU2, q: g.Q, c: -1, gates: run})
			}
			i = j
		case g.Kind == CNOT:
			p.ins = append(p.ins, instr{op: opCNOT, q: g.Q, c: g.C, gates: gates[i : i+1]})
			i++
		default: // CRZ
			j := i + 1
			for j < len(gates) && gates[j].Kind == CRZ && gates[j].Q == g.Q && gates[j].C == g.C {
				j++
			}
			p.ins = append(p.ins, instr{op: opCtrlDiag, q: g.Q, c: g.C, gates: gates[i:j]})
			i = j
		}
	}
}

// fuseDiagGroups collapses groups of diagonal instructions (RZ chains, CRZ
// meshes) into full-register diagonal super-ops. A group may absorb
// NON-adjacent members by commuting them backward past intervening blocks whose support
// is disjoint from the member being moved. Diagonal operators all commute
// with each other, so a diagonal instruction joins a group exactly when its
// support avoids the union of the supports of every non-diagonal instruction
// seen since the group opened (the group's blocked mask) — that guarantees
// it commutes past each obstacle individually and the move is exact. Groups
// of ≥ 2 members collapse into one full-register diagonal super-op emitted
// at the first member's position; singleton groups stay in place (and remain
// available to entangler-block fusion).
func (p *Program) fuseDiagGroups() {
	type group struct {
		members []int
		blocked int // union support mask of non-diagonal instrs since open
	}
	var groups, open []*group
	support := func(in *instr) int {
		m := 1 << in.q
		if in.c >= 0 {
			m |= 1 << in.c
		}
		return m
	}
	for idx := range p.ins {
		in := &p.ins[idx]
		switch in.op {
		case opDiag, opCtrlDiag:
			s := support(in)
			joined := false
			for _, g := range open {
				if g.blocked&s == 0 {
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
		default:
			s := support(in)
			for _, g := range open {
				g.blocked |= s
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
		for _, m := range g.members {
			gates = append(gates, p.ins[m].gates...)
		}
		fused[g.members[0]] = instr{op: opDiagN, q: -1, c: -1, gates: gates}
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

// fuseBlocks greedily fuses each two-qubit instruction with the neighbouring
// single-qubit runs on its qubits — and with adjacent two-qubit instructions
// sharing its qubits — into one pair block (opU4). A CNOT that shares one
// qubit with an open CNOT-only pair block extends the block to a qubit
// triple, which is what collapses all-pairs CNOT meshes: consecutive CNOTs
// sharing a control land in one three-qubit block, emitted as a
// compile-time basis permutation (opPerm8, one pass and no arithmetic).
// Mixed blocks never grow past a pair.
//
// A fused block stays open while the stream touches none of its qubits; any
// instruction touching some but not all of the qubits it needs closes it.
// The fused instruction is emitted at the position of the block's last
// member. The move is exact: when a member is placed (joining, opening, or
// absorbed from a pending list or a grow), every non-member instruction
// between it and the emission point is known to touch none of that member's
// qubits — instructions touching an open block's qubits either join it or
// close it, and pending single-qubit instructions are absorbed or discarded
// the moment anything else touches their qubit — so each member commutes
// past the instructions it skips.
func (p *Program) fuseBlocks() {
	nq := p.circ.NumQubits
	type block struct {
		mask     int // qubit set; local bit order follows ascending qubit index
		members  []int
		cnotOnly bool // every member is a bare CNOT
		open     bool
	}
	owner := make([]*block, nq)
	pend := make([][]int, nq)
	memberOf := make([]*block, len(p.ins))
	var blocks []*block
	closeBlk := func(b *block) {
		if b == nil || !b.open {
			return
		}
		b.open = false
		for q := 0; q < nq; q++ {
			if owner[q] == b {
				owner[q] = nil
			}
		}
	}
	// absorb attaches qubit q (and its pending single-qubit instructions)
	// to block b.
	absorb := func(b *block, q int) {
		b.mask |= 1 << q
		for _, m := range pend[q] {
			b.members = append(b.members, m)
			b.cnotOnly = false
			memberOf[m] = b
		}
		pend[q] = pend[q][:0]
		owner[q] = b
	}
	addMember := func(b *block, idx int, op opcode) {
		b.members = append(b.members, idx)
		if op != opCNOT {
			b.cnotOnly = false
		}
		memberOf[idx] = b
	}
	triple := func(b *block) bool { return b != nil && bits.OnesCount(uint(b.mask)) >= 3 }
	for idx := range p.ins {
		in := &p.ins[idx]
		switch in.op {
		case opU2, opDiag:
			q := in.q
			b := owner[q]
			// Only CNOTs may join a triple; close the permutation instead.
			if triple(b) {
				closeBlk(b)
				b = nil
			}
			if b != nil {
				addMember(b, idx, in.op)
			} else {
				pend[q] = append(pend[q], idx)
			}
		case opCNOT, opCtrlDiag:
			a, b := in.q, in.c
			ba, bb := owner[a], owner[b]
			if ba != nil && ba == bb {
				// Keep triples pure: a controlled diagonal closes the
				// permutation and starts a fresh pair instead.
				if !(triple(ba) && in.op != opCNOT) {
					addMember(ba, idx, in.op)
					continue
				}
				closeBlk(ba)
				ba, bb = nil, nil
			}
			// Grow an open pair block by the unowned endpoint only when
			// everything involved is a bare CNOT, so the triple emits as a
			// zero-arithmetic permutation.
			grow := func(blk *block, other int) bool {
				return blk != nil && !triple(blk) && blk.cnotOnly && in.op == opCNOT && len(pend[other]) == 0
			}
			if bb == nil && grow(ba, b) {
				absorb(ba, b)
				addMember(ba, idx, in.op)
				continue
			}
			if ba == nil && grow(bb, a) {
				absorb(bb, a)
				addMember(bb, idx, in.op)
				continue
			}
			closeBlk(ba)
			closeBlk(bb)
			nb := &block{open: true, cnotOnly: true}
			absorb(nb, a)
			absorb(nb, b)
			addMember(nb, idx, in.op)
			blocks = append(blocks, nb)
		default: // opEmbedProd, opEmbedAll, opDiagN: full-width barriers
			for q := 0; q < nq; q++ {
				closeBlk(owner[q])
				pend[q] = pend[q][:0]
			}
		}
	}
	// CNOT-only pair blocks stay bare CNOTs: a dense 4×4 costs more than
	// the swap passes it would replace, and the permutation path needs a
	// third qubit to pay off. Every other block, a lone CRZ chain included,
	// becomes an opU4.
	for _, b := range blocks {
		if b.cnotOnly && !triple(b) {
			for _, m := range b.members {
				memberOf[m] = nil
			}
			b.members = b.members[:0]
		}
		sort.Ints(b.members)
	}
	out := p.ins[:0:0]
	for idx := range p.ins {
		b := memberOf[idx]
		if b == nil {
			out = append(out, p.ins[idx])
			continue
		}
		if idx != b.members[len(b.members)-1] {
			continue
		}
		var gates []Gate
		for _, m := range b.members {
			gates = append(gates, p.ins[m].gates...)
		}
		qs := maskQubits(b.mask)
		if len(qs) == 2 {
			out = append(out, instr{op: opU4, q: qs[0], c: qs[1], gates: gates})
			continue
		}
		in := instr{
			op: opPerm8, q: qs[0], c: qs[1], q2: qs[2], gates: gates,
			perm: cnotPerm8(gates, qs[0], qs[1], qs[2]),
		}
		in.cycles, in.invCycles = permCycles(in.perm)
		out = append(out, in)
	}
	p.ins = out
}

// cnotPerm8 composes a CNOT sequence on the triple (qa, qb, qc) into one
// local basis permutation P with new[P[j]] = old[j].
func cnotPerm8(gates []Gate, qa, qb, qc int) [8]uint8 {
	var perm [8]uint8
	for j := range perm {
		perm[j] = uint8(j)
	}
	for _, g := range gates {
		pc, pt := localBit3(g.C, qa, qb, qc), localBit3(g.Q, qa, qb, qc)
		for j := range perm {
			if perm[j]&(1<<pc) != 0 {
				perm[j] ^= 1 << pt
			}
		}
	}
	return perm
}

// permCycles decomposes a local permutation into its non-trivial cycles
// (each cycle c satisfies perm[c[i]] = c[(i+1) mod len]) and the reversed
// cycles of the inverse permutation. Fixed points are omitted, so the
// execution kernels never touch amplitudes the block leaves in place.
func permCycles(perm [8]uint8) (cycles, inv [][]uint8) {
	var seen [8]bool
	for s := 0; s < 8; s++ {
		if seen[s] || int(perm[s]) == s {
			continue
		}
		var cyc []uint8
		for j := uint8(s); !seen[j]; j = perm[j] {
			seen[j] = true
			cyc = append(cyc, j)
		}
		cycles = append(cycles, cyc)
		rev := make([]uint8, len(cyc))
		for i, v := range cyc {
			rev[len(cyc)-1-i] = v
		}
		inv = append(inv, rev)
	}
	return cycles, inv
}

// maskQubits lists the set bits of a qubit mask in ascending order.
func maskQubits(mask int) []int {
	var qs []int
	for q := 0; mask != 0; q++ {
		if mask&1 != 0 {
			qs = append(qs, q)
		}
		mask >>= 1
	}
	return qs
}

// pairSingles fuses each two adjacent surviving single-qubit instructions
// (opU2, opDiag) on distinct qubits into one pair block (opU4, q < c) whose
// gates keep their stream order. The two factors act on different qubits,
// so the block is their Kronecker product and the move is exact; it is what
// collapses the rotation walls block fusion leaves, e.g. Cross-Mesh's RX
// wall in front of its fused diagonal mesh. A second instruction on the
// pending one's qubit emits the pending one alone and takes its place; one
// left alone is emitted as an opU2, an RZ chain included.
func (p *Program) pairSingles() {
	out := p.ins[:0:0]
	pend := -1 // index of the unpaired single-qubit instruction, if any
	flush := func() {
		if pend >= 0 {
			in := p.ins[pend]
			in.op = opU2
			out = append(out, in)
			pend = -1
		}
	}
	for idx := range p.ins {
		in := &p.ins[idx]
		switch {
		case in.op != opU2 && in.op != opDiag:
			flush()
			out = append(out, *in)
		case pend < 0 || p.ins[pend].q == in.q:
			flush()
			pend = idx
		default:
			a := &p.ins[pend]
			gates := append(append([]Gate(nil), a.gates...), in.gates...)
			out = append(out, instr{op: opU4, q: min(a.q, in.q), c: max(a.q, in.q), gates: gates})
			pend = -1
		}
	}
	flush()
	p.ins = out
}

// foldTrailingPerms strips the CNOT and opPerm8 instructions that end the
// stream and folds them into the program's readout map: the readout reads
// the final state through the permutation and the adjoint seed writes
// through it, so the permutation passes vanish from both the forward and
// the backward walk. A permutation moves amplitudes without arithmetic, so
// every output and gradient keeps its bits; only the digest changes.
func (p *Program) foldTrailingPerms() {
	k := len(p.ins)
	for k > 0 && (p.ins[k-1].op == opCNOT || p.ins[k-1].op == opPerm8) {
		k--
	}
	p.folded = append(p.folded, p.ins[k:]...)
	p.ins = p.ins[:k]
	var cnots []Gate
	for _, in := range p.folded {
		cnots = append(cnots, in.gates...)
	}
	p.readout = newReadoutMap(cnots)
}

// layout assigns coefficient slots, derivative slots and — for
// full-register diagonals — the compile-time derivative sign tables.
func (p *Program) layout() {
	dim := 1 << p.circ.NumQubits
	for i := range p.ins {
		in := &p.ins[i]
		switch in.op {
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
		case opDiagN:
			in.slot = p.ncoef
			p.ncoef += 2 * dim
			in.tslot = p.ndiag
			p.ndiag++
			in.signs = make([]int8, len(in.params)*dim)
			pi := 0
			for _, g := range in.gates {
				if g.P < 0 {
					continue
				}
				row := in.signs[pi*dim : (pi+1)*dim]
				tMask := 1 << g.Q
				cMask := 0
				if g.Kind == CRZ {
					cMask = 1 << g.C
				}
				for j := 0; j < dim; j++ {
					if cMask != 0 && j&cMask == 0 {
						continue
					}
					if j&tMask == 0 {
						row[j] = 1
					} else {
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

// localBit3 returns the local bit position of qubit q within the triple
// (qa, qb, qc), qa < qb < qc.
func localBit3(q, qa, qb, qc int) int {
	switch q {
	case qa:
		return 0
	case qb:
		return 1
	case qc:
		return 2
	}
	panic("qsim: gate qubit outside fused triple")
}

// gateMat4 returns the 4×4 matrix of gate g within the pair (qa, qb).
func gateMat4(g Gate, theta []float64, qa, qb int) mat4 {
	switch g.Kind {
	case RX, RY, RZ:
		return embed2in4(gateMat2(g, theta), localBit(g.Q, qa, qb))
	case CNOT:
		pc, pt := localBit(g.C, qa, qb), localBit(g.Q, qa, qb)
		var m mat4
		for col := 0; col < 4; col++ {
			row := col
			if col&(1<<pc) != 0 {
				row = col ^ (1 << pt)
			}
			m[(row*4+col)*2] = 1
		}
		return m
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

// FillCoeffs refreshes the forward coefficient slots for the given
// parameters; dst must have at least NumCoeffs elements. For a fused run
// g1, g2, …, gk (in application order) the slot holds the product
// U_k·…·U_2·U_1.
func (p *Program) FillCoeffs(theta, dst []float64) {
	dim := 1 << p.circ.NumQubits
	for _, in := range p.ins {
		switch in.op {
		case opU2:
			u := gateMat2(in.gates[0], theta)
			for _, g := range in.gates[1:] {
				u = mul2(gateMat2(g, theta), u)
			}
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
// can take every gradient of a fused block in a single traversal. dst must
// have at least nderiv elements. Only gradient passes pay this cost.
func (p *Program) FillDerivCoeffs(theta, dst []float64) {
	for _, in := range p.ins {
		if len(in.params) == 0 {
			continue
		}
		switch in.op {
		case opU2:
			k := len(in.gates)
			mats := make([]mat2, k)
			for i, g := range in.gates {
				mats[i] = gateMat2(g, theta)
			}
			suf := make([]mat2, k)
			suf[k-1] = ident2
			for i := k - 2; i >= 0; i-- {
				suf[i] = mul2(suf[i+1], mats[i+1])
			}
			pre := ident2
			di := 0
			for i, g := range in.gates {
				if g.P >= 0 {
					d := mul2(suf[i], mul2(dgateMat2(g, theta), pre))
					copy(dst[in.dslot+8*di:in.dslot+8*di+8], d[:])
					di++
				}
				pre = mul2(mats[i], pre)
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
