package ad

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// gradCheck compares the tape gradient of a scalar-valued graph against
// central finite differences with respect to every entry of every input.
// build receives a fresh tape and the leaf handles and must return the loss.
func gradCheck(t *testing.T, name string, inputs [][]float64, shapes [][2]int, build func(tp *Tape, leaves []Value) Value) {
	t.Helper()
	const h = 1e-6
	const tol = 1e-4

	eval := func() float64 {
		tp := NewTape()
		leaves := make([]Value, len(inputs))
		for i, data := range inputs {
			leaves[i] = tp.Leaf(shapes[i][0], shapes[i][1], data, true)
		}
		return build(tp, leaves).Scalar()
	}

	tp := NewTape()
	leaves := make([]Value, len(inputs))
	for i, data := range inputs {
		leaves[i] = tp.Leaf(shapes[i][0], shapes[i][1], data, true)
	}
	loss := build(tp, leaves)
	tp.Backward(loss)

	for li, data := range inputs {
		grad := leaves[li].Grad()
		for j := range data {
			orig := data[j]
			data[j] = orig + h
			fp := eval()
			data[j] = orig - h
			fm := eval()
			data[j] = orig
			num := (fp - fm) / (2 * h)
			got := grad[j]
			if math.Abs(got-num) > tol*(1+math.Abs(num)) {
				t.Errorf("%s: input %d[%d]: grad %.8f, finite-diff %.8f", name, li, j, got, num)
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int, lo, hi float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = lo + (hi-lo)*rng.Float64()
	}
	return s
}

func TestElementwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, 12, -1.5, 1.5)
	b := randSlice(rng, 12, 0.5, 2.0) // positive: used as divisor and sqrt arg
	sh := [][2]int{{3, 4}, {3, 4}}

	cases := []struct {
		name  string
		build func(tp *Tape, l []Value) Value
	}{
		{"Add", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Add(l[0], l[1])) }},
		{"Sub", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Sub(l[0], l[1])) }},
		{"Mul", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Mul(l[0], l[1])) }},
		{"Div", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Div(l[0], l[1])) }},
		{"Scale", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Scale(l[0], -2.5)) }},
		{"Shift", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Shift(l[0], 0.7)) }},
		{"Neg", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Neg(l[0])) }},
		{"Sin", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Sin(l[0])) }},
		{"Cos", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Cos(l[0])) }},
		{"Tanh", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Tanh(l[0])) }},
		{"Exp", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Exp(l[0])) }},
		{"Square", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Square(l[0])) }},
		{"Sqrt", func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Sqrt(l[1])) }},
		{"MeanAll", func(tp *Tape, l []Value) Value { return tp.Square(tp.MeanAll(l[0])) }},
		{"SumAll", func(tp *Tape, l []Value) Value { return tp.Square(tp.Scale(tp.SumAll(l[0]), 0.1)) }},
		{"MSE", func(tp *Tape, l []Value) Value { return tp.MSE(l[0]) }},
	}
	for _, c := range cases {
		ai := append([]float64(nil), a...)
		bi := append([]float64(nil), b...)
		gradCheck(t, c.name, [][]float64{ai, bi}, sh, c.build)
	}
}

func TestAsinAcosGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randSlice(rng, 12, -0.9, 0.9)
	sh := [][2]int{{3, 4}}
	gradCheck(t, "Asin", [][]float64{a}, sh, func(tp *Tape, l []Value) Value {
		return tp.SumSq(tp.Asin(l[0]))
	})
	a2 := randSlice(rng, 12, -0.9, 0.9)
	gradCheck(t, "Acos", [][]float64{a2}, sh, func(tp *Tape, l []Value) Value {
		return tp.SumSq(tp.Acos(l[0]))
	})
}

func TestMatMulGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSlice(rng, 3*4, -1, 1)
	w := randSlice(rng, 4*2, -1, 1)
	gradCheck(t, "MatMul", [][]float64{a, w}, [][2]int{{3, 4}, {4, 2}},
		func(tp *Tape, l []Value) Value { return tp.SumSq(tp.MatMul(l[0], l[1])) })
}

func TestBroadcastGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSlice(rng, 3*4, -1, 1)
	bias := randSlice(rng, 4, -1, 1)
	gradCheck(t, "AddBias", [][]float64{a, bias}, [][2]int{{3, 4}, {1, 4}},
		func(tp *Tape, l []Value) Value { return tp.SumSq(tp.AddBias(l[0], l[1])) })

	a2 := randSlice(rng, 3*4, -1, 1)
	s := randSlice(rng, 3, 0.5, 1.5)
	gradCheck(t, "RowScale", [][]float64{a2, s}, [][2]int{{3, 4}, {3, 1}},
		func(tp *Tape, l []Value) Value { return tp.SumSq(tp.RowScale(l[0], l[1])) })
}

func TestShapeOpGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSlice(rng, 3*5, -1, 1)
	gradCheck(t, "SelectCols", [][]float64{a}, [][2]int{{3, 5}},
		func(tp *Tape, l []Value) Value {
			// Repeated index exercises scatter-add.
			return tp.SumSq(tp.SelectCols(l[0], []int{0, 2, 2, 4}))
		})

	a2 := randSlice(rng, 3*2, -1, 1)
	gradCheck(t, "PlaceCols", [][]float64{a2}, [][2]int{{3, 2}},
		func(tp *Tape, l []Value) Value {
			return tp.SumSq(tp.PlaceCols(l[0], []int{3, 1}, 5))
		})

	a3 := randSlice(rng, 5*3, -1, 1)
	gradCheck(t, "SelectRows", [][]float64{a3}, [][2]int{{5, 3}},
		func(tp *Tape, l []Value) Value {
			return tp.SumSq(tp.SelectRows(l[0], []int{4, 0, 2}))
		})

	a4 := randSlice(rng, 3*2, -1, 1)
	b4 := randSlice(rng, 3*3, -1, 1)
	gradCheck(t, "ConcatCols", [][]float64{a4, b4}, [][2]int{{3, 2}, {3, 3}},
		func(tp *Tape, l []Value) Value {
			return tp.SumSq(tp.ConcatCols(l[0], l[1]))
		})
}

// TestSelectRowsRepeatedIndices: a gather may name a row more than once
// (a hand-built collocation set can hold duplicate points), and its backward
// must sum every copy's gradient into that row, race-free under any worker
// bound.
func TestSelectRowsRepeatedIndices(t *testing.T) {
	defer par.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(6))
	a := randSlice(rng, 4*1, -1, 1)
	gradCheck(t, "SelectRows repeated", [][]float64{a}, [][2]int{{4, 1}},
		func(tp *Tape, l []Value) Value {
			return tp.SumSq(tp.Mul(tp.SelectRows(l[0], []int{2, 0, 2, 2, 3, 0}), tp.Const(6, 1, []float64{1, -2, 3, 0.5, 1, 4})))
		})

	// Large enough that a parallel scatter would split the index list.
	const n, m = 64, 4096
	src := randSlice(rng, n, -1, 1)
	idx := make([]int, m)
	for j := range idx {
		idx[j] = rng.Intn(n)
	}
	want := make([]float64, n)
	for _, r := range idx {
		want[r]++
	}
	for _, workers := range []int{1, 4} {
		par.SetMaxWorkers(workers)
		tp := NewTape()
		leaf := tp.Leaf(n, 1, src, true)
		tp.Backward(tp.SumAll(tp.SelectRows(leaf, idx)))
		for r, g := range leaf.Grad() {
			if math.Float64bits(g) != math.Float64bits(want[r]) {
				t.Fatalf("workers=%d: row %d gradient %v, want %v (its count in idx)", workers, r, g, want[r])
			}
		}
	}
}

func TestClampGradient(t *testing.T) {
	// Away from the clamp boundary the op is the identity.
	a := []float64{-0.5, 0.3, 0.7, -0.2}
	gradCheck(t, "Clamp", [][]float64{a}, [][2]int{{1, 4}},
		func(tp *Tape, l []Value) Value { return tp.SumSq(tp.Clamp(l[0], 0.95)) })
}

// TestMLPGradient is an integration check: a two-layer tanh network with a
// quadratic loss must match finite differences for weights and biases.
func TestMLPGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randSlice(rng, 8*3, -1, 1)
	w1 := randSlice(rng, 3*6, -0.7, 0.7)
	b1 := randSlice(rng, 6, -0.2, 0.2)
	w2 := randSlice(rng, 6*2, -0.7, 0.7)
	b2 := randSlice(rng, 2, -0.2, 0.2)
	gradCheck(t, "MLP",
		[][]float64{x, w1, b1, w2, b2},
		[][2]int{{8, 3}, {3, 6}, {1, 6}, {6, 2}, {1, 2}},
		func(tp *Tape, l []Value) Value {
			h := tp.Tanh(tp.AddBias(tp.MatMul(l[0], l[1]), l[2]))
			y := tp.AddBias(tp.MatMul(h, l[3]), l[4])
			return tp.MSE(y)
		})
}

func TestCustomOpBackward(t *testing.T) {
	// A custom op computing y = 3x with analytic backward must round-trip.
	x := []float64{1, 2, 3}
	tp := NewTape()
	xv := tp.Leaf(1, 3, x, true)
	out := []float64{3, 6, 9}
	y := tp.Custom(1, 3, out, true, func(g []float64) {
		dx := xv.Grad()
		for i := range g {
			dx[i] += 3 * g[i]
		}
	})
	loss := tp.SumAll(y)
	tp.Backward(loss)
	for i, g := range xv.Grad() {
		if math.Abs(g-3) > 1e-12 {
			t.Errorf("custom grad[%d] = %v, want 3", i, g)
		}
	}
}

func TestTapeResetReuse(t *testing.T) {
	tp := NewTape()
	x := []float64{1, 2, 3, 4}
	for step := 0; step < 3; step++ {
		xv := tp.Leaf(2, 2, x, true)
		loss := tp.MSE(tp.Tanh(xv))
		tp.Backward(loss)
		if loss.Scalar() <= 0 {
			t.Fatal("loss must be positive")
		}
		g := xv.Grad()
		for i, want := range []float64{1, 2, 3, 4} {
			_ = want
			if g[i] == 0 {
				t.Fatalf("step %d: zero gradient at %d", step, i)
			}
		}
		tp.Reset()
		if tp.Len() != 0 {
			t.Fatal("reset did not clear tape")
		}
	}
}

func TestNoGradSkipsAllocation(t *testing.T) {
	tp := NewTape()
	x := tp.Leaf(2, 2, []float64{1, 2, 3, 4}, false)
	y := tp.Tanh(x)
	if y.NeedsGrad() {
		t.Fatal("gradient tracking must not propagate from non-grad leaves")
	}
	loss := tp.MSE(y)
	tp.Backward(loss) // must be a no-op, not a panic
}

// Property: for random vectors, gradient of MeanAll(Square(x)) is 2x/n.
func TestQuickMSEGradientClosedForm(t *testing.T) {
	f := func(raw [6]float64) bool {
		x := make([]float64, 6)
		for i, v := range raw {
			x[i] = math.Mod(v, 3) // keep finite and modest
			if math.IsNaN(x[i]) {
				x[i] = 0.5
			}
		}
		tp := NewTape()
		xv := tp.Leaf(2, 3, x, true)
		loss := tp.MSE(xv)
		tp.Backward(loss)
		g := xv.Grad()
		for i := range x {
			want := 2 * x[i] / 6
			if math.Abs(g[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: linearity of the backward pass — grad of SumAll(a·x) is aᵀ·1.
func TestQuickMatMulGradLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 2+r.Intn(4), 1+r.Intn(4), 1+r.Intn(3)
		a := randSlice(r, n*k, -1, 1)
		w := randSlice(r, k*m, -1, 1)
		tp := NewTape()
		av := tp.Leaf(n, k, a, true)
		wv := tp.Leaf(k, m, w, true)
		loss := tp.SumAll(tp.MatMul(av, wv))
		tp.Backward(loss)
		// d/dA sum(AW) = row vector of row-sums of W, same for every row of A.
		ga := av.Grad()
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				var want float64
				for c := 0; c < m; c++ {
					want += w[j*m+c]
				}
				if math.Abs(ga[i*k+j]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < 50; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("matmul gradient linearity violated")
		}
	}
}

// TestResetPreservesConstData is the regression test for a recycling bug:
// Const nodes alias caller-owned data (IC targets, ε vectors) that persists
// across steps, so Reset must never feed their buffers to the pool where a
// later allocation would zero them.
func TestResetPreservesConstData(t *testing.T) {
	tp := NewTape()
	persistent := []float64{1, 2, 3, 4}
	for step := 0; step < 3; step++ {
		c := tp.Const(2, 2, persistent)
		x := tp.Leaf(2, 2, []float64{5, 6, 7, 8}, true)
		loss := tp.MSE(tp.Mul(c, x))
		tp.Backward(loss)
		tp.Reset()
		// Allocate aggressively from the pool; if the const buffer leaked in,
		// it would be zeroed here.
		for i := 0; i < 8; i++ {
			v := tp.Leaf(2, 2, make([]float64, 4), true)
			tp.Backward(tp.MSE(tp.Tanh(v)))
			tp.Reset()
		}
		for i, want := range []float64{1, 2, 3, 4} {
			if math.Float64bits(persistent[i]) != math.Float64bits(want) {
				t.Fatalf("step %d: const data corrupted: %v", step, persistent)
			}
		}
	}
}
