package ad

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// everyOpGraph builds a small graph that uses every op the tape has, fused
// dual groups and the input embedding included, over leaves that all need
// gradients, and returns its scalar loss.
func everyOpGraph(tp *Tape, x, w, b, s []float64, cw []float64) Value {
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
	return tp.AddScalars(
		tp.SumAll(tp.Clamp(cu, 0.7)),
		tp.MeanAll(sc[0]),
		tp.SumSq(sc[2]),
		tp.MSE(tp.Sub(tt[2], st[0])),
		tp.SumSq(tp.Add(ev, tp.Mul(et[0], et[2]))),
	)
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

// TestPooledBuffersWrittenInFull backs the allocation rule: value buffers
// that are not zeroed must be written in full by their kernel, and gradient
// buffers must still start at zero. A graph using every op is built and
// backpropagated on a fresh tape, then rebuilt on the same tape after every
// recycled buffer was filled with NaN; every value and gradient must come
// out bit for bit the same.
func TestPooledBuffersWrittenInFull(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	x, w, b := randSlice(rng, 24, -1, 1), randSlice(rng, 36, -1, 1), randSlice(rng, 9, -1, 1)
	s, cw := []float64{0.8}, randSlice(rng, 36, -1, 1)
	tp := NewTape()
	tp.Backward(everyOpGraph(tp, x, w, b, s, cw))
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

	loss := everyOpGraph(tp, x, w, b, s, cw)
	if math.IsNaN(loss.Scalar()) {
		t.Fatal("loss is NaN after recycling poisoned buffers")
	}
	tp.Backward(loss)
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
// groups' range kernels with a dynamic check.
func TestFusedRangeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	const n = 40
	tp := NewTape()
	a := tp.Leaf(8, 5, randSlice(rng, n, -1, 1), true)
	tan := []Value{tp.Leaf(8, 5, randSlice(rng, n, -1, 1), true), {}, tp.Leaf(8, 5, randSlice(rng, n, -1, 1), false)}
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
