package maxwell

import (
	"math"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/par"
)

// FieldsDual is the model output at a batch of points, split into the three
// TEz components, each an N×1 dual (value + ∂/∂x, ∂/∂y, ∂/∂t tangents).
type FieldsDual struct {
	Ez, Hx, Hy dual.D
}

// Split converts a raw N×3 model output into named components.
func Split(tp *ad.Tape, out dual.D) FieldsDual {
	return FieldsDual{
		Ez: dual.Col(tp, out, 0),
		Hx: dual.Col(tp, out, 1),
		Hy: dual.Col(tp, out, 2),
	}
}

// Forward evaluates the model on a coordinate batch. withTangents requests
// the input-derivative channels (needed for PDE and energy losses; the IC
// and symmetry losses use values only). The maxwell package is agnostic to
// the architecture behind this closure, but Build relies on it being
// pointwise: the values at a row depend only on that row's coordinates, bit
// for bit, whatever the batch around it and whether tangents are requested.
// Build therefore takes the IC and mirror values as row gathers of the
// collocation pass instead of evaluating those batches.
type Forward func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual

// Config selects the loss composition of one training run.
type Config struct {
	UseEnergy    bool
	UseSymmetry  bool
	UseIntuitive bool // §5.1: eq. 37 instead of eq. 14 in the dielectric case

	WIC, WSym, WEnergy float64 // eq. 26 weights (10 each in the paper)

	TimeWeights []float64 // per-bin curriculum weights; nil = uniform
}

// PaperConfig returns the eq. 26 weighting.
func PaperConfig(energy bool, symmetry bool) Config {
	return Config{UseEnergy: energy, UseSymmetry: symmetry, WIC: 10, WSym: 10, WEnergy: 10}
}

// Terms are the scalar loss components of one step (tape values), plus
// plain-float diagnostics.
type Terms struct {
	Phys, IC, Sym, Energy, Total ad.Value
	// BinResiduals are the unweighted mean squared PDE residuals per time
	// bin, used by the adaptive temporal weighting curriculum.
	BinResiduals []float64
}

// residuals computes the three PDE residuals (N×1 tape values) for the
// normalized TEz system:
//
//	res1 = ∂Ez/∂t − s·(∂Hy/∂x − ∂Hx/∂y)   (s = 1 or 1/ε_r depending on variant)
//	res2 = ∂Hx/∂t + ∂Ez/∂y
//	res3 = ∂Hy/∂t − ∂Ez/∂x
func residuals(tp *ad.Tape, f FieldsDual) (curlPart, res2, res3 ad.Value) {
	curlPart = tp.Sub(f.Hy.T[0], f.Hx.T[1]) // ∂Hy/∂x − ∂Hx/∂y
	res2 = tp.Add(f.Hx.T[2], f.Ez.T[1])
	res3 = tp.Sub(f.Hy.T[2], f.Ez.T[0])
	return
}

// Build assembles the complete training loss for one step. It runs the
// model once, over the collocation set with tangents. The IC set and the
// mirrored batches of the symmetry loss are collocation rows, so their
// values are gathered from that pass; a batch with a row that is not a
// collocation point (only a hand-built Collocation has one) is evaluated by
// the model instead, values only.
func Build(tp *ad.Tape, model Forward, p Problem, c *Collocation, cfg Config) Terms {
	var t Terms
	f := model(tp, c.Coords, c.N, true)
	row := rowIndex(c)

	curl, res2, res3 := residuals(tp, f)
	res1vac := tp.Sub(f.Ez.T[2], curl)

	w := cfg.TimeWeights
	var weightVec []float64
	if w != nil {
		weightVec = make([]float64, c.N)
		par.For(c.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				weightVec[i] = w[c.BinOf[i]]
			}
		})
	}

	switch {
	case p.Case != DielectricCase:
		// Eq. 13: three plain MSE residual terms.
		t.Phys = tp.AddScalars(
			weightedMSE(tp, res1vac, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	case cfg.UseIntuitive:
		// Eq. 37: one residual with pointwise 1/ε(x), all points weighted equally.
		invEps := make([]float64, c.N)
		par.For(c.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				invEps[i] = 1 / c.Eps[i]
			}
		})
		scaledCurl := tp.Mul(curl, tp.Const(c.N, 1, invEps))
		res1 := tp.Sub(f.Ez.T[2], scaledCurl)
		t.Phys = tp.AddScalars(
			weightedMSE(tp, res1, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	default:
		// Eq. 14: separate MSEs over the vacuum and dielectric partitions,
		// weighting both regions equally regardless of point counts — the
		// non-homogeneous loss that §5.1 credits with preventing the BH
		// collapse in the dielectric case.
		epsR := epsOfDielectric(c)
		res1d := tp.Sub(f.Ez.T[2], tp.Scale(curl, 1/epsR))
		t.Phys = tp.AddScalars(
			weightedMSESubset(tp, res1vac, c.VacIdx, weightVec),
			weightedMSESubset(tp, res1d, c.DielIdx, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	}

	t.BinResiduals = binResiduals(c, res1vac, res2, res3)

	// Initial-condition loss (eq. 19), values only.
	fic := valuesAt(tp, model, f, row, c.ICCoords, c.ICN)
	ez0 := tp.Const(c.ICN, 1, c.ICEz0)
	t.IC = tp.AddScalars(
		tp.MSE(tp.Sub(fic.Ez.V, ez0)),
		tp.MSE(fic.Hx.V),
		tp.MSE(fic.Hy.V),
	)

	terms := []ad.Value{t.Phys, tp.Scale(t.IC, cfg.WIC)}

	// Symmetry loss (eq. 20): row i of each mirror batch is the reflection
	// of collocation point i, so each term compares a row with its image.
	if cfg.UseSymmetry && (p.UseSymX || p.UseSymY) {
		var symTerms []ad.Value
		if p.UseSymX {
			fm := valuesAt(tp, model, f, row, c.MirrorX, c.N)
			symTerms = append(symTerms,
				tp.MSE(tp.Sub(f.Ez.V, fm.Ez.V)), // Ez even in x
				tp.MSE(tp.Sub(f.Hx.V, fm.Hx.V)), // Hx even in x
				tp.MSE(tp.Add(f.Hy.V, fm.Hy.V)), // Hy odd in x
			)
		}
		if p.UseSymY {
			fm := valuesAt(tp, model, f, row, c.MirrorY, c.N)
			symTerms = append(symTerms,
				tp.MSE(tp.Sub(f.Ez.V, fm.Ez.V)), // Ez even in y
				tp.MSE(tp.Add(f.Hx.V, fm.Hx.V)), // Hx odd in y
				tp.MSE(tp.Sub(f.Hy.V, fm.Hy.V)), // Hy even in y
			)
		}
		t.Sym = tp.AddScalars(symTerms...)
		terms = append(terms, tp.Scale(t.Sym, cfg.WSym))
	}

	// Energy-conservation loss (eq. 25): the Poynting residual
	// ∂u/∂t + ∇·S with u = ½(ε Ez² + Hx² + Hy²), S = (−Ez·Hy, Ez·Hx).
	if cfg.UseEnergy {
		epsVec := tp.Const(c.N, 1, c.Eps)
		dudt := tp.Add(
			tp.Add(
				tp.Mul(tp.Mul(epsVec, f.Ez.V), f.Ez.T[2]),
				tp.Mul(f.Hx.V, f.Hx.T[2]),
			),
			tp.Mul(f.Hy.V, f.Hy.T[2]),
		)
		divSx := tp.Add(tp.Mul(f.Ez.T[0], f.Hy.V), tp.Mul(f.Ez.V, f.Hy.T[0]))
		divSy := tp.Add(tp.Mul(f.Ez.T[1], f.Hx.V), tp.Mul(f.Ez.V, f.Hx.T[1]))
		res := tp.Add(tp.Sub(dudt, divSx), divSy)
		t.Energy = tp.MSE(res)
		terms = append(terms, tp.Scale(t.Energy, cfg.WEnergy))
	}

	t.Total = tp.AddScalars(terms...)
	return t
}

// rowIndex maps the coordinate bits of each row of c.Coords to its row.
// Build rebuilds it on every call because a Collocation's rows may be
// reordered between steps.
func rowIndex(c *Collocation) map[[3]uint64]int {
	row := make(map[[3]uint64]int, c.N)
	for i := 0; i < c.N; i++ {
		row[coordBits(c.Coords, i)] = i
	}
	return row
}

// valuesAt returns the field values at the n points of coords as row
// gathers of the collocation pass f, each point matched by its coordinate
// bits. A batch with a point that is no collocation row is evaluated by the
// model, values only.
func valuesAt(tp *ad.Tape, model Forward, f FieldsDual, row map[[3]uint64]int, coords []float64, n int) FieldsDual {
	idx := make([]int, n)
	for i := range idx {
		j, ok := row[coordBits(coords, i)]
		if !ok {
			return model(tp, coords, n, false)
		}
		idx[i] = j
	}
	return FieldsDual{
		Ez: dual.FromValue(tp.SelectRows(f.Ez.V, idx)),
		Hx: dual.FromValue(tp.SelectRows(f.Hx.V, idx)),
		Hy: dual.FromValue(tp.SelectRows(f.Hy.V, idx)),
	}
}

// coordBits is the bit pattern of row i of an N×3 coordinate array.
func coordBits(coords []float64, i int) [3]uint64 {
	return [3]uint64{math.Float64bits(coords[3*i]), math.Float64bits(coords[3*i+1]), math.Float64bits(coords[3*i+2])}
}

// epsOfDielectric returns the (constant) ε_r of the dielectric partition.
func epsOfDielectric(c *Collocation) float64 {
	if len(c.DielIdx) == 0 {
		return 1
	}
	return c.Eps[c.DielIdx[0]]
}

// weightedMSE is MSE(res) or, with a weight vector, mean(w ⊙ res²).
func weightedMSE(tp *ad.Tape, res ad.Value, w []float64) ad.Value {
	if w == nil {
		return tp.MSE(res)
	}
	n := res.Rows()
	return tp.MeanAll(tp.RowScale(tp.Square(res), tp.Const(n, 1, w)))
}

// weightedMSESubset restricts the (weighted) MSE to a row subset.
func weightedMSESubset(tp *ad.Tape, res ad.Value, idx []int, w []float64) ad.Value {
	if len(idx) == 0 {
		return tp.ConstScalar(0)
	}
	sub := tp.SelectRows(res, idx)
	if w == nil {
		return tp.MSE(sub)
	}
	ws := make([]float64, len(idx))
	for j, i := range idx {
		ws[j] = w[i]
	}
	return tp.MeanAll(tp.RowScale(tp.Square(sub), tp.Const(len(idx), 1, ws)))
}

// binResiduals averages the unweighted squared residuals per time bin
// (plain floats; feeds the curriculum update, not the gradient). The
// accumulation runs as a par.RunChunk region — one fork/join for all
// residual vectors — with per-CHUNK bin partials merged in chunk order.
// Because the chunk partition depends only on (N, chunk), the result is
// bit-identical for every worker bound, so the curriculum weights (and with
// the default EngineSharded, the whole training loop) stay
// worker-count-independent.
//
//torq:ordered-merge
func binResiduals(c *Collocation, rs ...ad.Value) []float64 {
	out := make([]float64, c.Bins)
	datas := make([][]float64, len(rs))
	for i, r := range rs {
		datas[i] = r.Data()
	}
	const chunk = 2048
	nch := (c.N + chunk - 1) / chunk
	parts := make([]float64, nch*c.Bins)
	par.RunChunk(c.N, chunk, func(_, lo, hi int) {
		p := parts[(lo/chunk)*c.Bins : (lo/chunk+1)*c.Bins]
		for _, d := range datas {
			for i := lo; i < hi; i++ {
				v := d[i]
				p[c.BinOf[i]] += v * v
			}
		}
	})
	for s := 0; s < nch; s++ {
		for b := 0; b < c.Bins; b++ {
			out[b] += parts[s*c.Bins+b]
		}
	}
	for b := range out {
		if cnt := len(c.BinIdx[b]); cnt > 0 {
			out[b] /= float64(cnt)
		}
	}
	return out
}
