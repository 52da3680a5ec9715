package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/maxwell"
	"repro/internal/par"
	"repro/internal/qsim"
)

// gradCase is one whole-model configuration of the gradient oracle: a
// network, the problem it is trained on and the loss flags of the step.
type gradCase struct {
	arch       Arch
	ansatz     qsim.AnsatzKind
	scaling    qsim.ScalingKind
	nq, layers int
	reupload   bool
	problem    maxwell.Case
	energy     bool
	symmetry   bool
	intuitive  bool
	curriculum bool // non-uniform per-bin time weights
}

func (c gradCase) String() string {
	return fmt.Sprintf("%v/%v/%v %dq/%dL reupload=%v %v energy=%v sym=%v intuitive=%v curriculum=%v",
		c.arch, c.ansatz, c.scaling, c.nq, c.layers, c.reupload, c.problem, c.energy, c.symmetry, c.intuitive, c.curriculum)
}

// gradCases returns the oracle's table: hand-picked configurations first
// (one qubit, re-uploading, Cross-Mesh, the trig control, the dielectric
// case with each physics weighting), then a fill to 40 drawn from
// rand.New(rand.NewSource(517)) over every architecture, ansatz and scaling,
// 1–5 qubits, 1–3 layers, all three problems and every loss flag.
func gradCases() []gradCase {
	cases := []gradCase{
		{QPINN, qsim.StronglyEntangling, qsim.ScaleAsin, 1, 1, false, maxwell.VacuumCase, true, true, false, true},
		{QPINN, qsim.BasicEntangling, qsim.ScaleAcos, 3, 2, true, maxwell.VacuumCase, false, true, false, false},
		{QPINN, qsim.CrossMesh, qsim.ScalePi, 4, 2, false, maxwell.DielectricCase, true, true, false, true},
		{QPINN, qsim.StronglyEntangling, qsim.ScaleAsin, 5, 3, false, maxwell.DielectricCase, false, true, false, true},
		{QPINN, qsim.NoEntanglement, qsim.ScaleBias, 2, 2, true, maxwell.DielectricCase, true, false, true, true},
		{ClassicalTrig, qsim.BasicEntangling, qsim.ScaleAsin, 3, 1, false, maxwell.VacuumCase, true, true, false, true},
		{ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone, 4, 2, false, maxwell.DielectricCase, true, true, false, true},
	}
	archs := []Arch{ClassicalRegular, ClassicalReduced, ClassicalExtra, QPINN, ClassicalTrig}
	problems := []maxwell.Case{maxwell.VacuumCase, maxwell.DielectricCase, maxwell.AsymmetricCase}
	rng := rand.New(rand.NewSource(517))
	flip := func() bool { return rng.Intn(2) == 1 }
	for len(cases) < 40 {
		cases = append(cases, gradCase{
			arch:       archs[rng.Intn(len(archs))],
			ansatz:     qsim.AllAnsatze[rng.Intn(len(qsim.AllAnsatze))],
			scaling:    qsim.AllScalings[rng.Intn(len(qsim.AllScalings))],
			nq:         1 + rng.Intn(5),
			layers:     1 + rng.Intn(3),
			reupload:   flip(),
			problem:    problems[rng.Intn(len(problems))],
			energy:     flip(),
			symmetry:   flip(),
			intuitive:  flip(),
			curriculum: flip(),
		})
	}
	return cases
}

// fieldValues evaluates the model on coords and returns each component's
// values and, with tangents, its ∂/∂x, ∂/∂y, ∂/∂t (Ez, Hx, Hy in order).
func fieldValues(m *Model, coords []float64, n int, tangents bool) (v [3][]float64, d [3][3][]float64) {
	tp := ad.NewTape()
	m.Reg.Bind(tp, false)
	f := m.Forward(tp, coords, n, tangents)
	for i, comp := range []dual.D{f.Ez, f.Hx, f.Hy} {
		v[i] = comp.V.Data()
		if tangents {
			for k := 0; k < 3; k++ {
				d[i][k] = comp.T[k].Data()
			}
		}
	}
	return v, d
}

// oracleLoss recomputes eq. 26's total loss in plain float64 from the
// model's fields, sharing no loss code with maxwell.Build: eqs. 13, 14 or
// 37 for the physics term with the curriculum's per-point weights, eq. 19,
// the mirrored symmetry terms of eq. 20 and the Poynting residual of eq. 25.
func oracleLoss(m *Model, p maxwell.Problem, c *maxwell.Collocation, cfg maxwell.Config) float64 {
	v, d := fieldValues(m, c.Coords, c.N, true)
	ez, hx, hy := v[0], v[1], v[2]
	const dx, dy, dt = 0, 1, 2
	weight := func(i int) float64 {
		if cfg.TimeWeights == nil {
			return 1
		}
		return cfg.TimeWeights[c.BinOf[i]]
	}
	epsR := 1.0
	if len(c.DielIdx) > 0 {
		epsR = c.Eps[c.DielIdx[0]]
	}
	curl := func(i int) float64 { return d[2][dx][i] - d[1][dy][i] }
	res1vac := func(i int) float64 { return d[0][dt][i] - curl(i) }
	res1 := res1vac
	if p.Case == maxwell.DielectricCase && cfg.UseIntuitive {
		res1 = func(i int) float64 { return d[0][dt][i] - curl(i)/c.Eps[i] }
	}
	res1d := func(i int) float64 { return d[0][dt][i] - curl(i)/epsR }
	res2 := func(i int) float64 { return d[1][dt][i] + d[0][dy][i] }
	res3 := func(i int) float64 { return d[2][dt][i] - d[0][dx][i] }
	// meanW is the weighted mean square of res over the points idx.
	meanW := func(res func(int) float64, idx []int) float64 {
		if len(idx) == 0 {
			return 0
		}
		var s float64
		for _, i := range idx {
			r := res(i)
			s += weight(i) * r * r
		}
		return s / float64(len(idx))
	}
	all := make([]int, c.N)
	for i := range all {
		all[i] = i
	}
	var phys float64
	if p.Case == maxwell.DielectricCase && !cfg.UseIntuitive {
		phys = meanW(res1vac, c.VacIdx) + meanW(res1d, c.DielIdx)
	} else {
		phys = meanW(res1, all)
	}
	phys += meanW(res2, all) + meanW(res3, all)

	meanSq := func(n int, f func(i int) float64) float64 {
		var s float64
		for i := 0; i < n; i++ {
			r := f(i)
			s += r * r
		}
		return s / float64(n)
	}
	ic, _ := fieldValues(m, c.ICCoords, c.ICN, false)
	total := phys + cfg.WIC*(meanSq(c.ICN, func(i int) float64 { return ic[0][i] - c.ICEz0[i] })+
		meanSq(c.ICN, func(i int) float64 { return ic[1][i] })+
		meanSq(c.ICN, func(i int) float64 { return ic[2][i] }))

	if cfg.UseSymmetry && (p.UseSymX || p.UseSymY) {
		var sym float64
		// parity[k] is +1 where component k is even under the mirror.
		mirror := func(coords []float64, parity [3]float64) {
			mv, _ := fieldValues(m, coords, c.N, false)
			for k := 0; k < 3; k++ {
				sym += meanSq(c.N, func(i int) float64 { return v[k][i] - parity[k]*mv[k][i] })
			}
		}
		if p.UseSymX {
			mirror(c.MirrorX, [3]float64{1, 1, -1})
		}
		if p.UseSymY {
			mirror(c.MirrorY, [3]float64{1, -1, 1})
		}
		total += cfg.WSym * sym
	}
	if cfg.UseEnergy {
		total += cfg.WEnergy * meanSq(c.N, func(i int) float64 {
			dudt := c.Eps[i]*ez[i]*d[0][dt][i] + hx[i]*d[1][dt][i] + hy[i]*d[2][dt][i]
			divS := -(d[0][dx][i]*hy[i] + ez[i]*d[2][dx][i]) + (d[0][dy][i]*hx[i] + ez[i]*d[1][dy][i])
			return dudt + divS
		})
	}
	return total
}

// TestModelLossGradientDirectional is the whole-model gradient oracle. For
// each configuration of gradCases it builds the training loss with
// maxwell.Build on a 4³ collocation grid and requires two things:
//   - The tape's total equals oracleLoss, an independent float64 evaluation
//     of the same loss from the model's fields, to 1e-12 relative. A gradient
//     check alone cannot see a loss term built wrongly but consistently
//     (a sign in a residual, a skipped curriculum weight): this can.
//   - Backward's gradient g, contracted with a seeded unit direction v,
//     matches the central difference (L(θ+hv) − L(θ−hv))/2h of Build's total
//     with h = 1e-4, to 1e-6 of max(|g·v|, |g|): the whole chain of
//     maxwell's terms, the dual tangents, nn's layers and the qsim adjoint,
//     dAngleTans included.
//
// On these configurations the worst differences seen were 2.4e-16 relative
// on the value and 1.3e-9 of max(|g·v|, |g|) on g·v (amd64), so both
// tolerances leave a margin of several hundred.
func TestModelLossGradientDirectional(t *testing.T) {
	const (
		h       = 1e-4
		valTol  = 1e-12
		gradTol = 1e-6
		grid    = 4
		bins    = 5
	)
	for ci, gc := range gradCases() {
		name := fmt.Sprintf("case %d %v", ci, gc)
		mcfg := ModelConfig{
			Arch: gc.arch, Hidden: 6, RFFFeatures: 4, RFFSigma: 1,
			NumQubits: gc.nq, QLayers: gc.layers, Ansatz: gc.ansatz, Scaling: gc.scaling,
			Init: qsim.InitRegular, Reupload: gc.reupload, TimePeriod: 4, Seed: int64(11 + ci),
		}
		if err := mcfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := NewModel(mcfg)
		p := maxwell.NewSmokeProblem(gc.problem)
		coll := maxwell.NewCollocation(p, grid, bins)
		cfg := maxwell.PaperConfig(gc.energy, gc.symmetry)
		cfg.UseIntuitive = gc.intuitive
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		if gc.curriculum {
			cfg.TimeWeights = make([]float64, bins)
			for b := range cfg.TimeWeights {
				cfg.TimeWeights[b] = 0.1 + rng.Float64()
			}
		}

		tp := ad.NewTape()
		m.Reg.Bind(tp, true)
		terms := maxwell.Build(tp, m.Forward, p, coll, cfg)
		tp.Backward(terms.Total)
		m.Reg.PullGrads()
		total := terms.Total.Scalar()

		if want := oracleLoss(m, p, coll, cfg); math.Abs(total-want) > valTol*math.Abs(want) {
			t.Errorf("%s: Build's total loss %v, independent evaluation %v", name, total, want)
		}

		// A seeded unit direction over every parameter, and g·v.
		var dirs [][]float64
		var norm, gv, gnorm float64
		for _, prm := range m.Reg.Params {
			dv := make([]float64, len(prm.W))
			for i := range dv {
				dv[i] = rng.NormFloat64()
				norm += dv[i] * dv[i]
			}
			dirs = append(dirs, dv)
		}
		norm = math.Sqrt(norm)
		for pi, prm := range m.Reg.Params {
			for i := range dirs[pi] {
				dirs[pi][i] /= norm
				gv += prm.Grad[i] * dirs[pi][i]
				gnorm += prm.Grad[i] * prm.Grad[i]
			}
		}
		gnorm = math.Sqrt(gnorm)

		lossAt := func(step float64) float64 {
			saved := make([][]float64, len(m.Reg.Params))
			for pi, prm := range m.Reg.Params {
				saved[pi] = append([]float64(nil), prm.W...)
				for i := range prm.W {
					prm.W[i] += step * dirs[pi][i]
				}
			}
			tp := ad.NewTape()
			m.Reg.Bind(tp, false)
			l := maxwell.Build(tp, m.Forward, p, coll, cfg).Total.Scalar()
			for pi, prm := range m.Reg.Params {
				copy(prm.W, saved[pi])
			}
			return l
		}
		fd := (lossAt(h) - lossAt(-h)) / (2 * h)
		if d := math.Abs(gv - fd); d > gradTol*math.Max(math.Abs(gv), gnorm) {
			t.Errorf("%s: g·v = %v, central difference %v (diff %v, |g| = %v)", name, gv, fd, d, gnorm)
		}
	}
}

// TestModelIsPointwise pins the contract maxwell.Build relies on when it
// gathers the IC and symmetry values from the collocation pass: a model's
// output at a point does not depend on the batch around it, nor on whether
// tangents are requested. For every architecture and grids of 4, 7 and 10
// points per axis, the values-only outputs on the IC set and on both mirror
// batches must equal, bit for bit, the outputs of the collocation pass with
// tangents at the rows holding the same coordinates, under 1, 2 and 4
// workers (the bound that sets every layer's parallel chunking).
func TestModelIsPointwise(t *testing.T) {
	defer par.SetMaxWorkers(0)
	bits := func(coords []float64, i int) [3]uint64 {
		return [3]uint64{math.Float64bits(coords[3*i]), math.Float64bits(coords[3*i+1]), math.Float64bits(coords[3*i+2])}
	}
	for _, workers := range []int{1, 2, 4} {
		par.SetMaxWorkers(workers)
		for _, arch := range []Arch{ClassicalRegular, ClassicalReduced, ClassicalExtra, QPINN, ClassicalTrig} {
			m := NewModel(SmokeModel(arch, qsim.StronglyEntangling, qsim.ScaleAsin))
			for _, g := range []int{4, 7, 10} {
				c := maxwell.NewCollocation(maxwell.NewSmokeProblem(maxwell.VacuumCase), g, 3)
				row := map[[3]uint64]int{}
				for i := 0; i < c.N; i++ {
					row[bits(c.Coords, i)] = i
				}
				full, _ := fieldValues(m, c.Coords, c.N, true)
				for _, b := range []struct {
					name   string
					coords []float64
					n      int
				}{{"IC", c.ICCoords, c.ICN}, {"x-mirror", c.MirrorX, c.N}, {"y-mirror", c.MirrorY, c.N}} {
					got, _ := fieldValues(m, b.coords, b.n, false)
					for i := 0; i < b.n; i++ {
						j, ok := row[bits(b.coords, i)]
						if !ok {
							t.Fatalf("workers=%d %v g=%d: %s row %d is not a collocation row", workers, arch, g, b.name, i)
						}
						for k := 0; k < 3; k++ {
							if math.Float64bits(got[k][i]) != math.Float64bits(full[k][j]) {
								t.Fatalf("workers=%d %v g=%d: %s row %d component %d = %v, collocation row %d gives %v",
									workers, arch, g, b.name, i, k, got[k][i], j, full[k][j])
							}
						}
					}
				}
			}
		}
	}
}
