package ad

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// opGraph is everyOpGraph's loss and the two leaves whose gradients the
// first-writer rule must still get right: unused, a parameter the loss does
// not use, and behindInf, a weight whose one product meets an Inf
// activation and a gradient no consumer wrote.
type opGraph struct{ loss, unused, behindInf Value }

// everyOpGraph builds a small graph that uses every op the tape has, fused
// dual groups and the input embedding included, over leaves that all need
// gradients. Beside them it builds the first-writer rule's edge cases: a
// node whose gradient no consumer writes, an unused parameter, an Inf
// weight behind a zero upstream gradient, and dual groups of 1147 elements,
// more than two blocks with a ragged last one, one taking its own input as
// a tangent.
func everyOpGraph(tp *Tape, x, w, b, s []float64, cw []float64) opGraph {
	X := tp.Leaf(6, 4, x, true)
	W := tp.Leaf(4, 9, w, true)
	B := tp.Leaf(1, 9, b, true)
	S := tp.Leaf(1, 1, s, true)
	h := tp.AddBias(tp.MatMul(X, W), B)
	ta := tp.MatMul(X, tp.Const(4, 9, cw))
	tan := []Value{ta, {}, tp.Mul(ta, h)}
	tt := make([]Value, 3)
	th := tp.Dual(DualTanh, h, tan, tt)
	st, ct := make([]Value, 3), make([]Value, 3)
	sn := tp.Dual(DualSin, th, tt, st)
	cs := tp.Dual(DualCos, th, tt, ct)
	sc := make([]Value, 3)
	sn2, cs2 := tp.Sin(tp.Scale(h, 0.5)), tp.Cos(tp.Scale(h, 0.5))
	u := tp.Scale(tp.Tanh(h), 0.99)
	as := tp.Dual(DualAsin, u, ct, sc)
	ac := tp.Dual(DualAcos, u, st, make([]Value, 3))
	si := tp.Dual(DualSin, cs, []Value{st[0], ct[2], {}}, make([]Value, 3))
	co := tp.Dual(DualCos, sn, ct, make([]Value, 3))
	rs := tp.RowScale(tp.Add(as, ac), tp.Col(h, 2))
	e := tp.Div(tp.Exp(tp.Neg(tp.Mul(si, co))), tp.Shift(tp.Sqrt(tp.Square(sn2)), 1))
	cat := tp.ConcatCols(tp.SelectRows(rs, []int{5, 0, 3}), tp.SelectRows(tp.Sub(e, cs2), []int{1, 2, 4}))
	pc := tp.PlaceCols(tp.SelectCols(cat, []int{17, 3, 3, 0}), []int{6, 1, 4, 2}, 8)
	cu := tp.Custom(3, 8, pc.Data(), true, func(g []float64) {
		dp := pc.Grad()
		for i := range g {
			dp[i] += 2 * g[i]
		}
	})
	et := make([]Value, 3)
	ev := tp.FourierEmbed(x[:18], 6, [2]float64{1.5, 2.5}, S, cw, 6, [3]bool{true, false, true}, et)

	// No consumer writes this node's gradient: Backward zeroes it, and its
	// zero terms still reach h.
	tp.Exp(h)
	// The loss does not use U: its gradient must come out +0.
	U := tp.Leaf(2, 3, w[:6], true)
	// Winf holds an Inf, so hinf has Inf entries; the product of hinf and V
	// has no consumer, so V's TN product meets them with a zeroed upstream
	// gradient, and 0·Inf = NaN must reach V's gradient.
	winf := slices.Clone(cw[:8])
	winf[3] = math.Inf(1)
	hinf := tp.MatMul(tp.Leaf(6, 4, x, false), tp.Leaf(4, 2, winf, true))
	V := tp.Leaf(2, 3, b[:6], true)
	tp.MatMul(hinf, V)

	// Groups over 1147 = 2·512 + 123 elements. The tanh group takes its own
	// input as its first tangent, so the lane and the value term write one
	// gradient.
	rng := rand.New(rand.NewSource(517))
	const br, bc = 37, 31
	G := tp.Leaf(br, bc, randSlice(rng, br*bc, -2, 2), true)
	gt := make([]Value, 3)
	gv := tp.Dual(DualTanh, G, []Value{G, {}, tp.Leaf(br, bc, randSlice(rng, br*bc, -1, 1), true)}, gt)
	gs := make([]Value, 3)
	ga := tp.Dual(DualAsin, tp.Scale(gv, 0.9), gt, gs)

	return opGraph{
		loss: tp.AddScalars(
			tp.SumAll(tp.Clamp(cu, 0.7)),
			tp.MeanAll(sc[0]),
			tp.SumSq(sc[2]),
			tp.MSE(tp.Sub(tt[2], st[0])),
			tp.SumSq(tp.Add(ev, tp.Mul(et[0], et[2]))),
			tp.MSE(tp.Mul(ga, gs[0])),
			tp.MeanAll(tp.Add(gs[2], gv)),
		),
		unused:    U,
		behindInf: V,
	}
}

// tapeBits returns the bits of every node's value and gradient.
func tapeBits(tp *Tape) []uint64 {
	var bits []uint64
	for i := range tp.nodes {
		for _, buf := range [][]float64{tp.nodes[i].val, tp.nodes[i].grad} {
			for _, v := range buf {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// TestPooledBuffersWrittenInFull backs the allocation rule: no buffer but
// PlaceCols' value is zeroed when handed out, so a value kernel must write
// its buffer in full, and a gradient must be written by a first writer that
// stores, zeroed before a partial writer adds, or zeroed by Backward when
// no consumer wrote it. A graph using every op and the rule's edge cases is
// built and backpropagated on a fresh tape, then rebuilt on the same tape
// after every recycled buffer was filled with NaN; every value and gradient
// must come out bit for bit the same, with no tolerance. On both builds the
// unused parameter's gradient must be +0 and the weight behind the Inf must
// have a NaN gradient.
func TestPooledBuffersWrittenInFull(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	x, w, b := randSlice(rng, 24, -1, 1), randSlice(rng, 36, -1, 1), randSlice(rng, 9, -1, 1)
	s, cw := []float64{0.8}, randSlice(rng, 36, -1, 1)
	checkEdges := func(how string, g opGraph) {
		t.Helper()
		for i, v := range g.unused.Grad() {
			if math.Float64bits(v) != 0 {
				t.Errorf("%s: unused parameter's gradient[%d] = %v, want +0", how, i, v)
			}
		}
		if !slices.ContainsFunc(g.behindInf.Grad(), math.IsNaN) {
			t.Errorf("%s: gradient behind the Inf activation is %v, want a NaN", how, g.behindInf.Grad())
		}
	}
	tp := NewTape()
	g := everyOpGraph(tp, x, w, b, s, cw)
	tp.Backward(g.loss)
	checkEdges("fresh tape", g)
	want := tapeBits(tp)
	tp.Reset()

	sizes := make([]int, 0, len(tp.pool.byLen))
	for n := range tp.pool.byLen {
		sizes = append(sizes, n)
	}
	slices.Sort(sizes)
	for _, n := range sizes {
		for _, buf := range tp.pool.byLen[n] {
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
	}

	g = everyOpGraph(tp, x, w, b, s, cw)
	if math.IsNaN(g.loss.Scalar()) {
		t.Fatal("loss is NaN after recycling poisoned buffers")
	}
	tp.Backward(g.loss)
	checkEdges("poisoned pool", g)
	got := tapeBits(tp)
	if len(got) != len(want) {
		t.Fatalf("rebuilt tape has %d words, first build %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: %v after recycling, %v on a fresh tape",
				i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

// TestFusedRangeZeroAllocs backs the //torq:hotpath annotation on the fused
// groups' range kernels with a dynamic check, over more elements than a
// block, so the block loop and the backward's stack scratch run too.
func TestFusedRangeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	const r, c = 30, 40
	const n = r * c
	if n <= dualBlock {
		t.Fatalf("n = %d fits in one block of %d", n, dualBlock)
	}
	tp := NewTape()
	a := tp.Leaf(r, c, randSlice(rng, n, -1, 1), true)
	tan := []Value{tp.Leaf(r, c, randSlice(rng, n, -1, 1), true), {}, tp.Leaf(r, c, randSlice(rng, n, -1, 1), false)}
	tp.Dual(DualAsin, a, tan, make([]Value, 3))
	tp.Dual(DualTanh, a, tan, make([]Value, 3))
	for gi := range tp.groups {
		g := &tp.groups[gi]
		if allocs := testing.AllocsPerRun(20, func() { dualFwdRange(g, 0, n) }); allocs != 0 {
			t.Errorf("group %d forward: %v allocs/run, want 0", gi, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { dualBwdRange(g, 0, n) }); allocs != 0 {
			t.Errorf("group %d backward: %v allocs/run, want 0", gi, allocs)
		}
	}
}

// TestSincosMatchesMath pins sincos to math.Sin and math.Cos bit for bit,
// over seeded inputs at every magnitude the argument reduction treats
// differently (including past its Payne–Hanek threshold of 2²⁹) and the
// special values.
func TestSincosMatchesMath(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.Pi / 4, 1 << 29, -(1 << 29), math.Nextafter(1<<29, 0)}
	for _, scale := range []float64{1e-8, 1, 10, 1e3, 1e6, 1e9, 1e15, 1e300} {
		for i := 0; i < 20000; i++ {
			xs = append(xs, (rng.Float64()*2-1)*scale)
		}
	}
	for _, x := range xs {
		s, c := sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("sincos(%v) = %v, %v; math gives %v, %v", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
}
