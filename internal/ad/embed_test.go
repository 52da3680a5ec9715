package ad

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// embedCase is one input-embedding configuration: n points drawn as a
// tensor grid of g values per axis (scattered when g is 0), with tangent
// outputs where tan is set.
type embedCase struct {
	name   string
	n, g   int
	f      int
	tan    [3]bool
	period float64
	negX   bool // mirror x, so x = 0 appears as −0
	oneT   bool // every point at the same t
}

func (c embedCase) String() string {
	return fmt.Sprintf("%s n=%d g=%d f=%d tan=%v T=%v", c.name, c.n, c.g, c.f, c.tan, c.period)
}

// coords returns the case's n×3 points, seeded by rng.
func (c embedCase) coords(rng *rand.Rand) []float64 {
	out := make([]float64, 3*c.n)
	axis := func() []float64 {
		a := make([]float64, c.g)
		for i := range a {
			a[i] = -1 + 2*float64(i)/float64(max(c.g, 1))
		}
		return a
	}
	ax, ay, at := axis(), axis(), axis()
	for i := 0; i < c.n; i++ {
		p := out[3*i : 3*i+3]
		if c.g > 0 {
			p[0], p[1], p[2] = ax[i%c.g], ay[i/c.g%c.g], at[i/(c.g*c.g)%c.g]
		} else {
			p[0], p[1], p[2] = rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*1.5
		}
		if c.negX {
			p[0] = -p[0]
		}
		if c.oneT {
			p[2] = 0.375
		}
	}
	return out
}

// embedCases are hand-picked cases first, then a fill from a seeded source.
func embedCases() []embedCase {
	all := [3]bool{true, true, true}
	cases := []embedCase{
		{name: "grid xyt", n: 1000, g: 10, f: 24, tan: all, period: 4},
		{name: "grid xt", n: 216, g: 6, f: 16, tan: [3]bool{true, false, true}, period: 2},
		{name: "grid none", n: 343, g: 7, f: 9, period: 4},
		{name: "mirror -0", n: 125, g: 5, f: 8, tan: all, period: 3, negX: true},
		{name: "one point", n: 1, g: 1, f: 5, tan: all, period: 4},
		{name: "one point none", n: 1, g: 0, f: 7, period: 1.5},
		{name: "one t", n: 100, g: 10, f: 12, tan: all, period: 4, oneT: true},
		{name: "scattered", n: 300, g: 0, f: 24, tan: all, period: 4},
		{name: "scattered none", n: 200, g: 0, f: 32, period: 6},
	}
	rng := rand.New(rand.NewSource(517))
	for len(cases) < 40 {
		c := embedCase{name: "random", g: rng.Intn(7), f: 1 + rng.Intn(40), period: 0.5 + 7*rng.Float64()}
		c.n = 1 + rng.Intn(400)
		if c.g > 0 {
			c.n = c.g * c.g * c.g
		}
		for k := range c.tan {
			c.tan[k] = rng.Intn(2) == 0
		}
		c.negX, c.oneT = rng.Intn(3) == 0, rng.Intn(5) == 0
		cases = append(cases, c)
	}
	return cases
}

// embedRef is the direct per-point reference: z = p·Ω from the six periodic
// features, the value [cos z | sin z] and, per coordinate k, the tangent
// [−sin z·∂z/∂k | cos z·∂z/∂k].
func embedRef(p []float64, scale [3]float64, omega []float64, f int) (val []float64, tan [3][]float64) {
	z := make([]float64, f)
	var dz [3][]float64
	for c := 0; c < 3; c++ {
		a := p[c] * scale[c]
		s, co := math.Sin(a), math.Cos(a)
		dz[c] = make([]float64, f)
		for j := 0; j < f; j++ {
			z[j] += s*omega[2*c*f+j] + co*omega[(2*c+1)*f+j]
			dz[c][j] = (co*omega[2*c*f+j] - s*omega[(2*c+1)*f+j]) * scale[c]
		}
	}
	val = make([]float64, 2*f)
	for j, zj := range z {
		val[j], val[f+j] = math.Cos(zj), math.Sin(zj)
	}
	for c := range tan {
		tan[c] = make([]float64, 2*f)
		for j, zj := range z {
			tan[c][j], tan[c][f+j] = -math.Sin(zj)*dz[c][j], math.Cos(zj)*dz[c][j]
		}
	}
	return val, tan
}

var embedScale = [2]float64{math.Pi, 2 * math.Pi / 3}

// runEmbed evaluates the case's embedding on a fresh tape, with the period
// needing a gradient when grad is set.
func runEmbed(c embedCase, coords, omega []float64, n int, grad bool) (*Tape, Value, []Value, Value) {
	tp := NewTape()
	T := tp.Leaf(1, 1, []float64{c.period}, grad)
	out := make([]Value, 3)
	v := tp.FourierEmbed(coords, n, embedScale, T, omega, c.f, c.tan, out)
	return tp, v, out, T
}

// TestFourierEmbedMatchesDirect checks the factored embedding's values and
// tangents against the direct per-point reference over the case table, and
// that the absent tangents are absent. The tolerances are about ten times
// the worst deviation seen: 8.9e-16 on values, 4.2e-15 (relative to
// 1 + |tangent|) on tangents.
func TestFourierEmbedMatchesDirect(t *testing.T) {
	const valTol, tanTol = 1e-14, 5e-14
	rng := rand.New(rand.NewSource(517))
	var worstV, worstT float64
	for _, c := range embedCases() {
		coords := c.coords(rng)
		omega := randSlice(rng, 6*c.f, -2, 2)
		_, v, out, _ := runEmbed(c, coords, omega, c.n, false)
		if v.Rows() != c.n || v.Cols() != 2*c.f {
			t.Fatalf("%v: value is %d×%d", c, v.Rows(), v.Cols())
		}
		scale := [3]float64{embedScale[0], embedScale[1], 2 * math.Pi / c.period}
		for i := 0; i < c.n; i++ {
			want, wantTan := embedRef(coords[3*i:3*i+3], scale, omega, c.f)
			for j, w := range want {
				d := math.Abs(v.Data()[2*c.f*i+j] - w)
				worstV = max(worstV, d)
				if d > valTol {
					t.Fatalf("%v: point %d column %d: %v, direct %v", c, i, j, v.Data()[2*c.f*i+j], w)
				}
			}
			for k := range out {
				if out[k].Valid() != c.tan[k] {
					t.Fatalf("%v: tangent %d present %v", c, k, out[k].Valid())
				}
				if !c.tan[k] {
					continue
				}
				for j, w := range wantTan[k] {
					d := math.Abs(out[k].Data()[2*c.f*i+j] - w)
					worstT = max(worstT, d/(1+math.Abs(w)))
					if d > tanTol*(1+math.Abs(w)) {
						t.Fatalf("%v: tangent %d point %d column %d: %v, direct %v", c, k, i, j, out[k].Data()[2*c.f*i+j], w)
					}
				}
			}
		}
	}
	t.Logf("worst deviation from the direct reference: values %.2g, tangents %.2g (relative)", worstV, worstT)
}

// embedBits returns the bits of every value and tangent row of the op's
// outputs, point by point.
func embedBits(v Value, out []Value, f int) [][]uint64 {
	rows := make([][]uint64, v.Rows())
	for i := range rows {
		for _, o := range append([]Value{v}, out...) {
			if o.Valid() {
				for _, x := range o.Data()[2*f*i : 2*f*(i+1)] {
					rows[i] = append(rows[i], math.Float64bits(x))
				}
			}
		}
	}
	return rows
}

// TestFourierEmbedBatchIndependent: a point's outputs are the same bits
// whether it is evaluated alone, in its batch, or in the batch shuffled.
func TestFourierEmbedBatchIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for _, c := range embedCases()[:9] {
		coords := c.coords(rng)
		omega := randSlice(rng, 6*c.f, -2, 2)
		_, v, out, _ := runEmbed(c, coords, omega, c.n, false)
		batch := embedBits(v, out, c.f)

		perm := rng.Perm(c.n)
		shuffled := make([]float64, len(coords))
		for i, p := range perm {
			copy(shuffled[3*i:3*i+3], coords[3*p:3*p+3])
		}
		_, v2, out2, _ := runEmbed(c, shuffled, omega, c.n, false)
		for i, row := range embedBits(v2, out2, c.f) {
			if !slices.Equal(row, batch[perm[i]]) {
				t.Fatalf("%v: point %d differs in a shuffled batch", c, perm[i])
			}
		}
		for i := 0; i < c.n; i += 1 + c.n/17 {
			_, v1, out1, _ := runEmbed(c, coords[3*i:3*i+3], omega, 1, false)
			if !slices.Equal(embedBits(v1, out1, c.f)[0], batch[i]) {
				t.Fatalf("%v: point %d differs evaluated alone", c, i)
			}
		}
	}
}

// embedLoss seeds the op's output gradients with fixed weights w and runs
// the reverse sweep from the period, returning Σ w⊙outputs and dL/dT.
func embedLoss(c embedCase, coords, omega []float64, w [][]float64) (loss, grad float64) {
	tp, v, out, T := runEmbed(c, coords, omega, c.n, true)
	outs := []Value{v}
	for _, o := range out {
		if o.Valid() {
			outs = append(outs, o)
		}
	}
	for l, o := range outs {
		copy(o.Grad(), w[l])
		for i, x := range o.Data() {
			loss += w[l][i] * x
		}
	}
	tp.Backward(T)
	return loss, T.Grad()[0] - 1
}

// TestFourierEmbedPeriodGradient checks dL/dT, for a loss weighting every
// value and tangent element, against a central difference.
func TestFourierEmbedPeriodGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for _, c := range embedCases() {
		if c.n > 400 {
			continue
		}
		coords := c.coords(rng)
		omega := randSlice(rng, 6*c.f, -2, 2)
		w := make([][]float64, 4)
		for l := range w {
			w[l] = randSlice(rng, 2*c.f*c.n, -1, 1)
		}
		_, got := embedLoss(c, coords, omega, w)
		h := 1e-5 * c.period
		cp, cm := c, c
		cp.period += h
		cm.period -= h
		lp, _ := embedLoss(cp, coords, omega, w)
		lm, _ := embedLoss(cm, coords, omega, w)
		num := (lp - lm) / (2 * h)
		if math.Abs(got-num) > 1e-6*(1+math.Abs(num)) {
			t.Errorf("%v: dL/dT %v, central difference %v", c, got, num)
		}
	}
}

// TestFourierEmbedWorkerCountIndependent: values, tangents and dL/dT are
// the same bits for one worker and for several.
func TestFourierEmbedWorkerCountIndependent(t *testing.T) {
	defer par.SetMaxWorkers(0)
	c := embedCases()[0]
	c.n, c.g, c.f = 4000, 0, 64
	rng := rand.New(rand.NewSource(517))
	coords := c.coords(rng)
	omega := randSlice(rng, 6*c.f, -2, 2)
	w := make([][]float64, 4)
	for l := range w {
		w[l] = randSlice(rng, 2*c.f*c.n, -1, 1)
	}
	run := func(workers int) ([]uint64, uint64) {
		par.SetMaxWorkers(workers)
		_, v, out, _ := runEmbed(c, coords, omega, c.n, false)
		_, g := embedLoss(c, coords, omega, w)
		return slices.Concat(embedBits(v, out, c.f)...), math.Float64bits(g)
	}
	v1, g1 := run(1)
	for _, workers := range []int{2, 3, 4} {
		if v, g := run(workers); !slices.Equal(v, v1) || g != g1 {
			t.Fatalf("%d workers: outputs equal %v, dL/dT %v vs %v", workers, slices.Equal(v, v1), math.Float64frombits(g), math.Float64frombits(g1))
		}
	}
}

// TestFourierEmbedZeroAllocs: a forward and backward of the op on a reused
// tape allocates nothing once the tape has warmed up. It runs on one worker:
// a par region's own set-up allocates and is not the op's.
func TestFourierEmbedZeroAllocs(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(1)
	c := embedCases()[0]
	rng := rand.New(rand.NewSource(517))
	coords := c.coords(rng)
	omega := randSlice(rng, 6*c.f, -2, 2)
	period := []float64{c.period}
	tp := NewTape()
	out := make([]Value, 3)
	step := func() {
		tp.Reset()
		T := tp.Leaf(1, 1, period, true)
		tp.FourierEmbed(coords, c.n, embedScale, T, omega, c.f, c.tan, out)
		tp.Backward(T)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("%v allocs per forward and backward, want 0", allocs)
	}
}

// BenchmarkFourierEmbed times the op's forward ("factored") next to the
// direct per-point reference ("direct": z = p·Ω and one sincos per point and
// feature, tangents included), at the vacuum training batch (10³ grid, 24
// features, three tangents) and at the paper-scale inference snapshot (48×48
// points at one t, 128 features, no tangents). "factored-bwd" adds the
// backward to dL/dT where the period is trained.
func BenchmarkFourierEmbed(b *testing.B) {
	for _, c := range []embedCase{
		{name: "1000x24-tan3", n: 1000, g: 10, f: 24, tan: [3]bool{true, true, true}, period: 4},
		{name: "2304x128-tan0", n: 2304, g: 48, f: 128, period: 4, oneT: true},
	} {
		rng := rand.New(rand.NewSource(517))
		coords := c.coords(rng)
		omega := randSlice(rng, 6*c.f, -2, 2)
		factored := func(grad bool) func(b *testing.B) {
			return func(b *testing.B) {
				tp := NewTape()
				out := make([]Value, 3)
				period := []float64{c.period}
				for i := 0; i < b.N; i++ {
					tp.Reset()
					T := tp.Leaf(1, 1, period, grad)
					tp.FourierEmbed(coords, c.n, embedScale, T, omega, c.f, c.tan, out)
					tp.Backward(T)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/point")
			}
		}
		b.Run(c.name+"/factored", factored(false))
		if c.tan[2] {
			b.Run(c.name+"/factored-bwd", factored(true))
		}
		b.Run(c.name+"/direct", func(b *testing.B) {
			scale := [3]float64{embedScale[0], embedScale[1], 2 * math.Pi / c.period}
			val := make([]float64, 2*c.f*c.n)
			tan := make([]float64, 3*2*c.f*c.n)
			z, p := make([]float64, c.f), make([]float64, 6)
			for i := 0; i < b.N; i++ {
				for pt := 0; pt < c.n; pt++ {
					for k := 0; k < 3; k++ {
						p[2*k], p[2*k+1] = math.Sincos(coords[3*pt+k] * scale[k])
					}
					for j := range z {
						var s float64
						for r := 0; r < 6; r++ {
							s += p[r] * omega[r*c.f+j]
						}
						z[j] = s
					}
					row := val[2*c.f*pt : 2*c.f*(pt+1)]
					for j, zj := range z {
						row[c.f+j], row[j] = math.Sincos(zj)
					}
					for k, on := range c.tan {
						if !on {
							continue
						}
						tr := tan[(k*c.n+pt)*2*c.f : (k*c.n+pt+1)*2*c.f]
						for j := range z {
							d := (p[2*k+1]*omega[2*k*c.f+j] - p[2*k]*omega[(2*k+1)*c.f+j]) * scale[k]
							tr[j], tr[c.f+j] = -row[c.f+j]*d, row[j]*d
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/point")
		})
	}
}
