package maxwell

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/refsol"
)

// exactForward wraps the spectral solution as a maxwell.Forward: fields and
// their derivatives enter the tape as constants. Feeding the exact solution
// into the loss machinery must produce (near-)zero physics, IC, symmetry
// and energy losses — the strongest self-consistency check available.
func exactForward(sp *refsol.Spectral) Forward {
	return func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		mk := func() (vals []float64, tans [3][]float64) {
			vals = make([]float64, n)
			for k := range tans {
				tans[k] = make([]float64, n)
			}
			return
		}
		ezV, ezT := mk()
		hxV, hxT := mk()
		hyV, hyT := mk()
		for i := 0; i < n; i++ {
			x, y, t := coords[i*3], coords[i*3+1], coords[i*3+2]
			ez, hx, hy := sp.EvalPoint(x, y, t)
			ezV[i], hxV[i], hyV[i] = ez.V, hx.V, hy.V
			ezT[0][i], ezT[1][i], ezT[2][i] = ez.Dx, ez.Dy, ez.Dt
			hxT[0][i], hxT[1][i], hxT[2][i] = hx.Dx, hx.Dy, hx.Dt
			hyT[0][i], hyT[1][i], hyT[2][i] = hy.Dx, hy.Dy, hy.Dt
		}
		wrap := func(v []float64, t3 [3][]float64) dual.D {
			d := dual.FromValue(tp.Const(n, 1, v))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, t3[k])
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(ezV, ezT), Hx: wrap(hxV, hxT), Hy: wrap(hyV, hyT)}
	}
}

func TestExactSolutionHasNearZeroLosses(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 8, 5)
	sp := refsol.NewSpectral(refsol.CenteredPulse().InitFields(32))
	tp := ad.NewTape()
	cfg := PaperConfig(true, true)
	terms := Build(tp, exactForward(sp), p, c, cfg)

	check := func(name string, v ad.Value, tol float64) {
		if !v.Valid() {
			t.Fatalf("%s missing", name)
		}
		if s := v.Scalar(); s > tol {
			t.Errorf("%s = %v, want < %v", name, s, tol)
		}
	}
	check("phys", terms.Phys, 1e-6)
	check("ic", terms.IC, 1e-9)
	check("sym", terms.Sym, 1e-9)
	check("energy", terms.Energy, 1e-6)
	check("total", terms.Total, 1e-5)
}

// TestZeroFieldLossAnatomy: the trivial solution (all fields ≡ 0) satisfies
// the PDE exactly but violates the IC — the loss structure that defines the
// black-hole attractor (§5): L_phys = 0 while L_IC stays pinned at the IC's
// mean square.
func TestZeroFieldLossAnatomy(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 5)
	zero := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		wrap := func() dual.D {
			d := dual.FromValue(tp.Const(n, 1, make([]float64, n)))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, make([]float64, n))
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(), Hx: wrap(), Hy: wrap()}
	}
	tp := ad.NewTape()
	terms := Build(tp, zero, p, c, PaperConfig(true, true))
	if terms.Phys.Scalar() > 1e-15 {
		t.Errorf("trivial solution must satisfy the PDE, phys = %v", terms.Phys.Scalar())
	}
	var wantIC float64
	for _, v := range c.ICEz0 {
		wantIC += v * v
	}
	wantIC /= float64(c.ICN)
	if math.Abs(terms.IC.Scalar()-wantIC) > 1e-12 {
		t.Errorf("IC loss = %v, want %v", terms.IC.Scalar(), wantIC)
	}
	if terms.Energy.Scalar() > 1e-15 {
		t.Errorf("trivial solution also zeroes the energy residual, got %v", terms.Energy.Scalar())
	}
}

func TestCollocationPartition(t *testing.T) {
	p := NewProblem(DielectricCase)
	g := 8
	c := NewCollocation(p, g, 5)
	if c.N != g*g*g {
		t.Fatalf("N = %d", c.N)
	}
	if len(c.VacIdx)+len(c.DielIdx) != c.N {
		t.Fatal("partition does not cover the grid")
	}
	if len(c.DielIdx) == 0 {
		t.Fatal("dielectric partition empty")
	}
	// ε labels must match the region classification.
	for _, i := range c.DielIdx {
		if c.Eps[i] != 4 {
			t.Fatalf("dielectric point %d has ε = %v", i, c.Eps[i])
		}
	}
	for _, i := range c.VacIdx {
		if c.Eps[i] != 1 {
			t.Fatalf("vacuum point %d has ε = %v", i, c.Eps[i])
		}
	}
	// Fewer dielectric than vacuum points (slab at x ≥ 0.35), which is why
	// eq. 14's equal region weighting differs from eq. 37.
	if len(c.DielIdx) >= len(c.VacIdx) {
		t.Fatal("expected minority dielectric partition")
	}
	// Time bins partition all points.
	var total int
	for _, idx := range c.BinIdx {
		total += len(idx)
	}
	if total != c.N {
		t.Fatalf("bins cover %d of %d", total, c.N)
	}
}

// TestMirrorBatches pins the mirror batches to the periodic grid image: row
// i of MirrorX is collocation row i with x replaced by grid coordinate
// (g−ix) mod g, bit for bit, which is −x up to an ulp or a whole period
// (and likewise for MirrorY in y). Every mirror row and every IC row must
// then be a Coords row bit for bit, which is what lets Build gather them
// from the collocation pass.
func TestMirrorBatches(t *testing.T) {
	for _, g := range []int{4, 7, 10} {
		p := NewProblem(VacuumCase)
		c := NewCollocation(p, g, 2)
		same := func(a, b []float64) bool {
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
					return false
				}
			}
			return true
		}
		// reflects reports whether m is −x up to rounding or a period of 2.
		reflects := func(m, x float64) bool {
			d := math.Abs(m + x)
			return d < 1e-15 || math.Abs(d-2) < 1e-15
		}
		rows := map[[3]uint64]bool{}
		for i := 0; i < c.N; i++ {
			rows[coordBits(c.Coords, i)] = true
		}
		for i := 0; i < c.N; i++ {
			ix, iy := i%g, i/g%g
			x, y, tt := c.Coords[3*i], c.Coords[3*i+1], c.Coords[3*i+2]
			if !same(c.MirrorX[3*i:3*i+3], []float64{refsol.Coord((g-ix)%g, g), y, tt}) || !reflects(c.MirrorX[3*i], x) {
				t.Fatalf("g=%d: x-mirror row %d = %v, collocation row %v", g, i, c.MirrorX[3*i:3*i+3], c.Coords[3*i:3*i+3])
			}
			if !same(c.MirrorY[3*i:3*i+3], []float64{x, refsol.Coord((g-iy)%g, g), tt}) || !reflects(c.MirrorY[3*i+1], y) {
				t.Fatalf("g=%d: y-mirror row %d = %v, collocation row %v", g, i, c.MirrorY[3*i:3*i+3], c.Coords[3*i:3*i+3])
			}
			if !rows[coordBits(c.MirrorX, i)] || !rows[coordBits(c.MirrorY, i)] {
				t.Fatalf("g=%d: mirror rows of point %d are not collocation rows", g, i)
			}
		}
		for i := 0; i < c.ICN; i++ {
			if !rows[coordBits(c.ICCoords, i)] {
				t.Fatalf("g=%d: IC row %d = %v is not a collocation row", g, i, c.ICCoords[3*i:3*i+3])
			}
		}
	}
}

// TestSymmetryLossDetectsAsymmetry: a field violating the parity relations
// produces a positive symmetry loss; the exact (symmetric) solution does not.
func TestSymmetryLossDetectsAsymmetry(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 3)
	skew := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = coords[i*3] // Ez = x is odd in x: violates (i)
		}
		wrap := func(data []float64) dual.D {
			d := dual.FromValue(tp.Const(n, 1, data))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, make([]float64, n))
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(v), Hx: wrap(make([]float64, n)), Hy: wrap(make([]float64, n))}
	}
	tp := ad.NewTape()
	terms := Build(tp, skew, p, c, PaperConfig(false, true))
	if terms.Sym.Scalar() <= 0.01 {
		t.Fatalf("symmetry loss = %v, expected clearly positive", terms.Sym.Scalar())
	}
}

// TestDielectricCasesDropXSymmetry: the dielectric problem only uses the
// y-mirror family.
func TestDielectricCasesDropXSymmetry(t *testing.T) {
	if p := NewProblem(DielectricCase); p.UseSymX || !p.UseSymY {
		t.Fatal("dielectric case must keep only y-symmetry")
	}
	if p := NewProblem(AsymmetricCase); p.UseSymX || p.UseSymY {
		t.Fatal("asymmetric case must disable the symmetry loss")
	}
}

func TestTimeCurriculum(t *testing.T) {
	tc := NewTimeCurriculum(5, 10)
	w := tc.Weights()
	if w[0] != 1 {
		t.Fatal("bin 0 must start at weight 1")
	}
	for _, wm := range w[1:] {
		if wm != 0 {
			t.Fatal("later bins must start at 0")
		}
	}
	// Large early residuals keep later bins suppressed.
	tc.Update([]float64{1, 1, 1, 1, 1})
	if tc.Weights()[1] > 1e-4 || tc.Converged(1e-3) {
		t.Fatal("curriculum unlocked too early")
	}
	// Converged early bins unlock everything.
	tc.Update([]float64{1e-9, 1e-9, 1e-9, 1e-9, 1e-9})
	for m, wm := range tc.Weights() {
		if wm < 0.99 {
			t.Fatalf("bin %d weight %v after convergence", m, wm)
		}
	}
	if !tc.Converged(1e-2) {
		t.Fatal("curriculum should report convergence")
	}
}

// TestIntuitiveVsRegionWeightedLossesDiffer: eq. 37 and eq. 14 weight the
// dielectric region differently, so for a field with region-dependent
// residuals the two losses must differ (§5.1's stabilization mechanism).
func TestIntuitiveVsRegionWeightedLossesDiffer(t *testing.T) {
	p := NewProblem(DielectricCase)
	c := NewCollocation(p, 6, 3)
	// A field whose Ez time-derivative is 1 everywhere: res1 differs between
	// regions because of the 1/ε scaling of the curl (which is zero here),
	// so res1 = 1 in both — but region weighting changes the MSE mix only
	// when region residuals differ; make them differ via Hy gradient.
	f := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		ones := make([]float64, n)
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			ones[i] = 1
			xs[i] = coords[i*3]
		}
		d := func(v []float64, t0, t1, t2 []float64) dual.D {
			out := dual.FromValue(tp.Const(n, 1, v))
			if withTangents {
				out.T[0] = tp.Const(n, 1, t0)
				out.T[1] = tp.Const(n, 1, t1)
				out.T[2] = tp.Const(n, 1, t2)
			}
			return out
		}
		zero := make([]float64, n)
		// Ez = 0; Hx = 0; Hy with ∂Hy/∂x = x (varies across regions).
		return FieldsDual{
			Ez: d(zero, zero, zero, zero),
			Hx: d(zero, zero, zero, zero),
			Hy: d(zero, xs, zero, zero),
		}
	}
	cfgRegion := PaperConfig(false, false)
	cfgIntuitive := cfgRegion
	cfgIntuitive.UseIntuitive = true
	tp1 := ad.NewTape()
	l1 := Build(tp1, f, p, c, cfgRegion).Phys.Scalar()
	tp2 := ad.NewTape()
	l2 := Build(tp2, f, p, c, cfgIntuitive).Phys.Scalar()
	if math.Abs(l1-l2) < 1e-9 {
		t.Fatalf("region-weighted (%v) and intuitive (%v) losses should differ", l1, l2)
	}
}

// TestTimeWeightsSuppressLateResiduals: with only bin 0 active, residuals at
// late times do not contribute to the physics loss.
func TestTimeWeightsSuppressLateResiduals(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 3)
	// Residual only at late times: Ez with ∂Ez/∂t = t.
	f := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		ts := make([]float64, n)
		for i := 0; i < n; i++ {
			ts[i] = coords[i*3+2]
		}
		zero := make([]float64, n)
		d := func(t2 []float64) dual.D {
			out := dual.FromValue(tp.Const(n, 1, zero))
			if withTangents {
				out.T[0] = tp.Const(n, 1, zero)
				out.T[1] = tp.Const(n, 1, zero)
				out.T[2] = tp.Const(n, 1, t2)
			}
			return out
		}
		return FieldsDual{Ez: d(ts), Hx: d(zero), Hy: d(zero)}
	}
	cfg := PaperConfig(false, false)
	cfg.TimeWeights = []float64{1, 0, 0}
	tp := ad.NewTape()
	terms := Build(tp, f, p, c, cfg)
	// Bin 0 covers t near 0 where the residual ≈ t is small.
	uniform := PaperConfig(false, false)
	tp2 := ad.NewTape()
	full := Build(tp2, f, p, c, uniform)
	if terms.Phys.Scalar() >= full.Phys.Scalar()/2 {
		t.Fatalf("curriculum weighting did not suppress late residuals: %v vs %v",
			terms.Phys.Scalar(), full.Phys.Scalar())
	}
}

// pointwiseFields is a smooth, asymmetric field triple with exact tangents,
// evaluated row by row: a Forward that is pointwise by construction.
func pointwiseFields(x, y, t float64) (v [3]float64, d [3][3]float64) {
	sx, cx := math.Sincos(math.Pi*x + 0.3)
	sy, cy := math.Sincos(math.Pi*y + 0.2)
	v = [3]float64{sx * cy * (1 + t), cx * sy * t, x * cy}
	d = [3][3]float64{
		{math.Pi * cx * cy * (1 + t), -math.Pi * sx * sy * (1 + t), sx * cy},
		{-math.Pi * sx * sy * t, math.Pi * cx * cy * t, cx * sy},
		{cy, -math.Pi * x * sy, 0},
	}
	return v, d
}

// countingForward wraps pointwiseFields as a Forward and counts its calls.
func countingForward(calls *int) Forward {
	return func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		*calls++
		var vals [3][]float64
		var tans [3][3][]float64
		for k := range vals {
			vals[k] = make([]float64, n)
			for j := range tans[k] {
				tans[k][j] = make([]float64, n)
			}
		}
		for i := 0; i < n; i++ {
			v, d := pointwiseFields(coords[3*i], coords[3*i+1], coords[3*i+2])
			for k := range vals {
				vals[k][i] = v[k]
				for j := range tans[k] {
					tans[k][j][i] = d[k][j]
				}
			}
		}
		var out [3]dual.D
		for k := range out {
			out[k] = dual.FromValue(tp.Const(n, 1, vals[k]))
			if withTangents {
				for j := 0; j < 3; j++ {
					out[k].T[j] = tp.Const(n, 1, tans[k][j])
				}
			}
		}
		return FieldsDual{Ez: out[0], Hx: out[1], Hy: out[2]}
	}
}

// directICSym evaluates eq. 19's IC loss and eq. 20's symmetry loss in plain
// float64 at every point of the IC and mirror batches, sharing no code with
// Build's gather.
func directICSym(p Problem, c *Collocation) (ic, sym float64) {
	for i := 0; i < c.ICN; i++ {
		v, _ := pointwiseFields(c.ICCoords[3*i], c.ICCoords[3*i+1], c.ICCoords[3*i+2])
		ic += (v[0]-c.ICEz0[i])*(v[0]-c.ICEz0[i]) + v[1]*v[1] + v[2]*v[2]
	}
	ic /= float64(c.ICN)
	mirror := func(m []float64, parity [3]float64) {
		for i := 0; i < c.N; i++ {
			v, _ := pointwiseFields(c.Coords[3*i], c.Coords[3*i+1], c.Coords[3*i+2])
			mv, _ := pointwiseFields(m[3*i], m[3*i+1], m[3*i+2])
			for k := range v {
				r := v[k] - parity[k]*mv[k]
				sym += r * r / float64(c.N)
			}
		}
	}
	if p.UseSymX {
		mirror(c.MirrorX, [3]float64{1, 1, -1})
	}
	if p.UseSymY {
		mirror(c.MirrorY, [3]float64{1, -1, 1})
	}
	return ic, sym
}

// shuffleRows returns a copy of c with its collocation rows permuted
// (coordinates, mirror partners, ε, time bins and the index lists moving
// together) and its IC rows permuted with their targets.
func shuffleRows(c *Collocation, rng *rand.Rand) *Collocation {
	out := *c
	perm := rng.Perm(c.N)
	newRow := make([]int, c.N)
	out.Coords = make([]float64, len(c.Coords))
	out.MirrorX = make([]float64, len(c.MirrorX))
	out.MirrorY = make([]float64, len(c.MirrorY))
	out.Eps = make([]float64, c.N)
	out.BinOf = make([]int, c.N)
	for j, i := range perm {
		newRow[i] = j
		copy(out.Coords[3*j:3*j+3], c.Coords[3*i:3*i+3])
		copy(out.MirrorX[3*j:3*j+3], c.MirrorX[3*i:3*i+3])
		copy(out.MirrorY[3*j:3*j+3], c.MirrorY[3*i:3*i+3])
		out.Eps[j] = c.Eps[i]
		out.BinOf[j] = c.BinOf[i]
	}
	remap := func(idx []int) []int {
		r := make([]int, len(idx))
		for k, i := range idx {
			r[k] = newRow[i]
		}
		return r
	}
	out.VacIdx, out.DielIdx = remap(c.VacIdx), remap(c.DielIdx)
	out.BinIdx = make([][]int, len(c.BinIdx))
	for b, idx := range c.BinIdx {
		out.BinIdx[b] = remap(idx)
	}
	out.ICCoords = make([]float64, len(c.ICCoords))
	out.ICEz0 = make([]float64, c.ICN)
	for j, i := range rng.Perm(c.ICN) {
		copy(out.ICCoords[3*j:3*j+3], c.ICCoords[3*i:3*i+3])
		out.ICEz0[j] = c.ICEz0[i]
	}
	return &out
}

// TestBuildOnePass: Build calls the model once per step on a NewCollocation
// and on a row-shuffled copy of one, gathering the IC and mirror values
// from that pass. A collocation whose x-mirror batch holds a point off the
// grid takes the fallback (one more, values-only call for that batch). In
// every case the IC and symmetry terms match a direct evaluation at the
// batches' points, and the total is their weighted sum with the physics and
// energy terms.
func TestBuildOnePass(t *testing.T) {
	for _, pc := range []Case{VacuumCase, DielectricCase} {
		p := NewProblem(pc)
		grid := NewCollocation(p, 5, 3)
		offGrid := *grid
		offGrid.MirrorX = append([]float64(nil), grid.MirrorX...)
		offGrid.MirrorX[3*7] += 0.01
		cases := []struct {
			name  string
			c     *Collocation
			calls int
		}{
			{"grid", grid, 1},
			{"shuffled", shuffleRows(grid, rand.New(rand.NewSource(3))), 1},
			{"off-grid mirror", &offGrid, 1},
		}
		if p.UseSymX {
			cases[2].calls = 2
		}
		for _, tc := range cases {
			var calls int
			cfg := PaperConfig(true, true)
			terms := Build(ad.NewTape(), countingForward(&calls), p, tc.c, cfg)
			if calls != tc.calls {
				t.Errorf("%v %s: Build called the model %d times, want %d", pc, tc.name, calls, tc.calls)
			}
			ic, sym := directICSym(p, tc.c)
			near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-13*math.Abs(want) }
			if !near(terms.IC.Scalar(), ic) || !near(terms.Sym.Scalar(), sym) {
				t.Errorf("%v %s: IC %v, sym %v; direct evaluation %v, %v", pc, tc.name, terms.IC.Scalar(), terms.Sym.Scalar(), ic, sym)
			}
			want := terms.Phys.Scalar() + cfg.WIC*ic + cfg.WSym*sym + cfg.WEnergy*terms.Energy.Scalar()
			if !near(terms.Total.Scalar(), want) {
				t.Errorf("%v %s: total %v, composed from its terms %v", pc, tc.name, terms.Total.Scalar(), want)
			}
		}
	}
}
