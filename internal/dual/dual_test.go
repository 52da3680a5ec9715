package dual

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ad"
)

// buildNet is a tiny smooth network f: R³ → R² exercising every dual op used
// on the PINN forward path: the input embedding with its learned period,
// column select/concat, sin/cos, and tanh layers. params are w1 (4×5), b1,
// w2 (5×2), b2 and the period; it returns the output and their leaves.
func buildNet(tp *ad.Tape, coords []float64, n int, params [][]float64, omega []float64, withTangents bool) (D, []ad.Value) {
	shapes := [][2]int{{4, 5}, {1, 5}, {5, 2}, {1, 2}, {1, 1}}
	leaves := make([]ad.Value, len(params))
	for i, p := range params {
		leaves[i] = tp.Leaf(shapes[i][0], shapes[i][1], p, true)
	}
	var x D
	tan := [K]bool{withTangents, withTangents, withTangents}
	x.V = tp.FourierEmbed(coords, n, [2]float64{2.1, 1.3}, leaves[4], omega, 2, tan, x.T[:])
	feats := ConcatCols(tp, ConcatCols(tp, Sin(tp, Col(tp, x, 0)), Cos(tp, Col(tp, x, 1))), SelectCols(tp, x, []int{3, 2}))
	h := Tanh(tp, Linear(tp, feats, leaves[0], leaves[1]))
	return Linear(tp, h, leaves[2], leaves[3]), leaves
}

func TestTangentsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 6
	coords := make([]float64, n*3)
	for i := range coords {
		coords[i] = rng.Float64()*2 - 1
	}
	params := [][]float64{randn(rng, 4*5), randn(rng, 5), randn(rng, 5*2), randn(rng, 2), {1.7}}
	omega := randn(rng, 6*2)

	eval := func(c []float64) []float64 {
		tp := ad.NewTape()
		out, _ := buildNet(tp, c, n, params, omega, false)
		return append([]float64(nil), out.V.Data()...)
	}

	tp := ad.NewTape()
	out, _ := buildNet(tp, coords, n, params, omega, true)

	const h = 1e-6
	for k := 0; k < 3; k++ {
		tanData := out.T[k].Data()
		for i := 0; i < n; i++ {
			cp := append([]float64(nil), coords...)
			cp[i*3+k] += h
			fp := eval(cp)
			cp[i*3+k] -= 2 * h
			fm := eval(cp)
			for j := 0; j < 2; j++ {
				num := (fp[i*2+j] - fm[i*2+j]) / (2 * h)
				got := tanData[i*2+j]
				if math.Abs(got-num) > 1e-5*(1+math.Abs(num)) {
					t.Errorf("tangent[%d] sample %d out %d: %v vs fd %v", k, i, j, got, num)
				}
			}
		}
	}
}

// TestTangentLossParamGradients is the load-bearing check for PINN training:
// a loss built from *tangent* nodes (a PDE-residual stand-in) must have exact
// parameter gradients. This validates the forward-over-reverse composition.
func TestTangentLossParamGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 5
	coords := make([]float64, n*3)
	for i := range coords {
		coords[i] = rng.Float64()*2 - 1
	}
	params := [][]float64{randn(rng, 4*5), randn(rng, 5), randn(rng, 5*2), randn(rng, 2), {1.3}}
	omega := randn(rng, 6*2)

	// A loss on tangent nodes: res = ∂f₀/∂t − ∂f₁/∂x + f₀·∂f₁/∂y.
	loss := func(tp *ad.Tape) (ad.Value, []ad.Value) {
		out, leaves := buildNet(tp, coords, n, params, omega, true)
		f0 := Col(tp, out, 0)
		f1 := Col(tp, out, 1)
		res := tp.Add(tp.Sub(f0.T[2], f1.T[0]), tp.Mul(f0.V, f1.T[1]))
		return tp.MSE(res), leaves
	}
	tp := ad.NewTape()
	l, leaves := loss(tp)
	tp.Backward(l)
	evalLoss := func() float64 {
		v, _ := loss(ad.NewTape())
		return v.Scalar()
	}

	const h = 1e-6
	for pi, p := range params {
		for j := range p {
			orig := p[j]
			p[j] = orig + h
			fp := evalLoss()
			p[j] = orig - h
			fm := evalLoss()
			p[j] = orig
			num := (fp - fm) / (2 * h)
			got := leaves[pi].Grad()[j]
			if math.Abs(got-num) > 2e-4*(1+math.Abs(num)) {
				t.Errorf("param %d[%d]: grad %v vs fd %v", pi, j, got, num)
			}
		}
	}
}

func TestDualArithmeticIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4
	tp := ad.NewTape()
	a := dualWithTangents(tp, rng, n)
	b := dualWithTangents(tp, rng, n)

	// (a+b) − b has the same value and tangents as a.
	c := Sub(tp, Add(tp, a, b), b)
	assertClose(t, "add/sub value", c.V.Data(), a.V.Data(), 1e-12)
	for k := 0; k < K; k++ {
		assertClose(t, "add/sub tangent", c.T[k].Data(), a.T[k].Data(), 1e-12)
	}

	// Product rule consistency: d(a²) = 2 a da.
	sq := Mul(tp, a, a)
	av := a.V.Data()
	for k := 0; k < K; k++ {
		want := make([]float64, n)
		for i, x := range a.T[k].Data() {
			want[i] = 2 * av[i] * x
		}
		assertClose(t, "square tangent", sq.T[k].Data(), want, 1e-12)
	}

	// sin² + cos² = 1 with zero tangent.
	s, c2 := Sin(tp, a), Cos(tp, a)
	one := Add(tp, Mul(tp, s, s), Mul(tp, c2, c2))
	for _, v := range one.V.Data() {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("sin²+cos² = %v", v)
		}
	}
	for k := 0; k < K; k++ {
		for _, v := range one.T[k].Data() {
			if math.Abs(v) > 1e-12 {
				t.Errorf("d(sin²+cos²) = %v, want 0", v)
			}
		}
	}
}

func dualWithTangents(tp *ad.Tape, rng *rand.Rand, n int) D {
	d := FromValue(tp.Const(n, 1, randn(rng, n)))
	for k := 0; k < K; k++ {
		d.T[k] = tp.Const(n, 1, randn(rng, n))
	}
	return d
}

func randn(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 0.5
	}
	return s
}

func assertClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d]: %v vs %v", name, i, got[i], want[i])
			return
		}
	}
}

// chainUnary is the composed construction the fused ops replace, kept as
// their oracle: y = f(a) and, when a has tangents, f′(a) built from tape
// primitives by df and one Mul per tangent.
func chainUnary(tp *ad.Tape, a D, v ad.Value, df func() ad.Value) D {
	out := D{V: v}
	if !a.HasTangents() {
		return out
	}
	d := df()
	for k := 0; k < K; k++ {
		if a.T[k].Valid() {
			out.T[k] = tp.Mul(d, a.T[k])
		}
	}
	return out
}

func chainSin(tp *ad.Tape, a D) D {
	return chainUnary(tp, a, tp.Sin(a.V), func() ad.Value { return tp.Cos(a.V) })
}

func chainCos(tp *ad.Tape, a D) D {
	return chainUnary(tp, a, tp.Cos(a.V), func() ad.Value { return tp.Neg(tp.Sin(a.V)) })
}

func chainTanh(tp *ad.Tape, a D) D {
	v := tp.Tanh(a.V)
	return chainUnary(tp, a, v, func() ad.Value { return tp.Shift(tp.Neg(tp.Square(v)), 1) })
}

// chainAsinDen is √(1−c²) for c = a clamped to ±(1−1e-9).
func chainAsinDen(tp *ad.Tape, a D) ad.Value {
	return tp.Sqrt(tp.Shift(tp.Neg(tp.Square(tp.Clamp(a.V, 1-1e-9))), 1))
}

func chainOnes(tp *ad.Tape, v ad.Value) ad.Value {
	data := make([]float64, v.Rows()*v.Cols())
	for i := range data {
		data[i] = 1
	}
	return tp.Const(v.Rows(), v.Cols(), data)
}

func chainAsin(tp *ad.Tape, a D) D {
	return chainUnary(tp, a, tp.Asin(a.V), func() ad.Value {
		den := chainAsinDen(tp, a)
		return tp.Div(chainOnes(tp, den), den)
	})
}

func chainAcos(tp *ad.Tape, a D) D {
	return chainUnary(tp, a, tp.Acos(a.V), func() ad.Value {
		den := chainAsinDen(tp, a)
		return tp.Neg(tp.Div(chainOnes(tp, den), den))
	})
}

// fusedCases pairs each fused dual op with its composed oracle.
type fusedCase struct {
	name         string
	fused, chain func(tp *ad.Tape, a D) []D
}

var fusedCases = []fusedCase{
	{"Tanh", func(tp *ad.Tape, a D) []D { return []D{Tanh(tp, a)} }, func(tp *ad.Tape, a D) []D { return []D{chainTanh(tp, a)} }},
	{"Sin", func(tp *ad.Tape, a D) []D { return []D{Sin(tp, a)} }, func(tp *ad.Tape, a D) []D { return []D{chainSin(tp, a)} }},
	{"Cos", func(tp *ad.Tape, a D) []D { return []D{Cos(tp, a)} }, func(tp *ad.Tape, a D) []D { return []D{chainCos(tp, a)} }},
	{"Asin", func(tp *ad.Tape, a D) []D { return []D{Asin(tp, a)} }, func(tp *ad.Tape, a D) []D { return []D{chainAsin(tp, a)} }},
	{"Acos", func(tp *ad.Tape, a D) []D { return []D{Acos(tp, a)} }, func(tp *ad.Tape, a D) []D { return []D{chainAcos(tp, a)} }},
}

// dualEdges are the inputs where rounding, clamping and NaN propagation
// differ most: signed zeros, the arcsine clamps at ±(1−1e-9) and ±1, values
// just inside and outside them, a large trig argument, NaN and ±Inf.
var dualEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 1 - 1e-9, -(1 - 1e-9), 1 - 1e-10, -(1 - 1e-10),
	1 - 1e-8, -(1 - 1e-8), 1 + 1e-12, -(1 + 1e-12), 0.5, -0.5, 3e5, -7.5,
	math.NaN(), math.Inf(1), math.Inf(-1), 1e-300,
}

// nanBits is x's bit pattern, with every NaN mapped to one. Which NaN an
// operation returns when both operands are NaN depends on which register the
// compiler made the destination, which Go does not specify; every other
// value is compared bit for bit.
func nanBits(x float64) uint64 {
	if x != x {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

// runDual builds out := build(a) on a fresh tape, with tangent channel k
// present when bit k of tanMask is set and a's value or channel k a leaf
// needing a gradient when bit 0 or bit k+1 of gradMask is set; backpropagates
// Σ wᵢ⊙outᵢ over every output value and tangent; and returns the bits of
// every output value, every tangent and every input gradient in order.
func runDual(build func(tp *ad.Tape, a D) []D, rows, cols int, aData []float64, tanData, weights [][]float64, tanMask, gradMask int) []uint64 {
	tp := ad.NewTape()
	a := FromValue(tp.Leaf(rows, cols, aData, gradMask&1 != 0))
	for k := 0; k < K; k++ {
		if tanMask&(1<<k) != 0 {
			a.T[k] = tp.Leaf(rows, cols, tanData[k], gradMask&(2<<k) != 0)
		}
	}
	outs := build(tp, a)
	var terms []ad.Value
	var bits []uint64
	appendBits := func(xs []float64) {
		for _, x := range xs {
			bits = append(bits, nanBits(x))
		}
	}
	w := 0
	for _, o := range outs {
		for k, v := range append([]ad.Value{o.V}, o.T[:]...) {
			if k > 0 && v.Valid() != a.T[k-1].Valid() {
				panic("tangent channel presence differs from the input's")
			}
			if !v.Valid() {
				continue
			}
			appendBits(v.Data())
			terms = append(terms, tp.SumAll(tp.Mul(v, tp.Const(rows, cols, weights[w]))))
			w++
		}
	}
	tp.Backward(tp.AddScalars(terms...))
	for _, v := range append([]ad.Value{a.V}, a.T[:]...) {
		if v.Valid() && v.NeedsGrad() {
			appendBits(v.Grad())
		}
	}
	return bits
}

// TestFusedMatchesComposedChain pins each fused dual op to the composed chain
// it replaced, bit for bit: values, every tangent and every input gradient,
// over seeded shapes, every subset of tangent channels, every combination of
// inputs needing gradients, and edge values in the input and tangents.
func TestFusedMatchesComposedChain(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip(`bit-identity is pinned for amd64 rounding; see ROADMAP, "Portable bit-identity"`)
	}
	rng := rand.New(rand.NewSource(517))
	shapes := [][2]int{{1, 1}, {3, 2}, {5, 7}, {10, 4}}
	for si, sh := range shapes {
		rows, cols := sh[0], sh[1]
		n := rows * cols
		aData := make([]float64, n)
		for i := range aData {
			aData[i] = rng.Float64()*2.2 - 1.1
		}
		tanData := make([][]float64, K)
		for k := range tanData {
			tanData[k] = randn(rng, n)
		}
		weights := make([][]float64, 1+K)
		for i := range weights {
			weights[i] = randn(rng, n)
		}
		if si == len(shapes)-1 {
			copy(aData, dualEdges)
			// Shifted so each tangent meets the edges at other elements.
			for k := range tanData {
				copy(tanData[k][(k+1)*5:], dualEdges)
			}
		}
		for _, c := range fusedCases {
			for tanMask := 0; tanMask < 1<<K; tanMask++ {
				for gradMask := 0; gradMask < 1<<(K+1); gradMask++ {
					if gradMask>>1&^tanMask != 0 {
						continue // a gradient flag on an absent channel
					}
					got := runDual(c.fused, rows, cols, aData, tanData, weights, tanMask, gradMask)
					want := runDual(c.chain, rows, cols, aData, tanData, weights, tanMask, gradMask)
					if len(got) != len(want) {
						t.Fatalf("%s %dx%d tangents %03b grads %04b: %d words, oracle %d", c.name, rows, cols, tanMask, gradMask, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s %dx%d tangents %03b grads %04b: word %d is %v (%#x), oracle %v (%#x)",
								c.name, rows, cols, tanMask, gradMask, i,
								math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
							break
						}
					}
				}
			}
		}
	}
}

// benchDual times one forward and backward of the named fusedCases entry on
// a 1000×32 input with all K tangents, every input needing gradients — a
// hidden layer's activation in the vacuum workloads — as a "fused" and a
// "chain" sub-benchmark side by side, with ns per element reported.
func benchDual(b *testing.B, name string) {
	i := slices.IndexFunc(fusedCases, func(c fusedCase) bool { return c.name == name })
	const rows, cols = 1000, 32
	rng := rand.New(rand.NewSource(517))
	aData := randn(rng, rows*cols)
	var tanData [K][]float64
	for k := range tanData {
		tanData[k] = randn(rng, rows*cols)
	}
	for _, side := range []struct {
		name  string
		build func(tp *ad.Tape, a D) []D
	}{{"fused", fusedCases[i].fused}, {"chain", fusedCases[i].chain}} {
		b.Run(side.name, func(b *testing.B) {
			tp := ad.NewTape()
			for i := 0; i < b.N; i++ {
				tp.Reset()
				a := FromValue(tp.Leaf(rows, cols, aData, true))
				for k := range a.T {
					a.T[k] = tp.Leaf(rows, cols, tanData[k], true)
				}
				var terms []ad.Value
				for _, o := range side.build(tp, a) {
					terms = append(terms, tp.SumAll(o.V))
					for _, t := range o.T {
						terms = append(terms, tp.SumAll(t))
					}
				}
				tp.Backward(tp.AddScalars(terms...))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*cols), "ns/elem")
		})
	}
}

func BenchmarkDualTanh(b *testing.B) { benchDual(b, "Tanh") }
