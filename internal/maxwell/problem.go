// Package maxwell encodes the physics of the paper's two benchmark
// problems: the TEz Maxwell residuals (eqs. 9–12), the initial-condition,
// symmetry and Poynting energy-conservation losses (eqs. 19, 20, 25), the
// vacuum/dielectric physics-loss weightings (eqs. 13, 14 and the §5.1
// "intuitive" variant, eq. 37), the total loss (eq. 26), and the adaptive
// temporal weighting curriculum.
package maxwell

import (
	"repro/internal/refsol"
)

// Case selects the benchmark problem.
type Case int

const (
	VacuumCase Case = iota
	DielectricCase
	AsymmetricCase // appendix A: off-center stretched pulse in vacuum
)

func (c Case) String() string {
	switch c {
	case VacuumCase:
		return "vacuum"
	case DielectricCase:
		return "dielectric"
	case AsymmetricCase:
		return "asymmetric"
	}
	return "unknown"
}

// Problem bundles the domain, medium and initial condition of one case.
type Problem struct {
	Case   Case
	TMax   float64
	Medium refsol.Medium
	Pulse  refsol.Pulse
	// Symmetry-loss configuration (§2.2): vacuum keeps both mirror
	// families; the dielectric slab breaks x-mirror symmetry; the
	// asymmetric case has no symmetry loss at all.
	UseSymX, UseSymY bool
}

// NewProblem constructs the paper's configuration for each case.
func NewProblem(c Case) Problem {
	switch c {
	case VacuumCase:
		return Problem{Case: c, TMax: 1.5, Medium: refsol.Vacuum{}, Pulse: refsol.CenteredPulse(), UseSymX: true, UseSymY: true}
	case DielectricCase:
		return Problem{Case: c, TMax: 0.7, Medium: refsol.PaperSlab(), Pulse: refsol.CenteredPulse(), UseSymX: false, UseSymY: true}
	case AsymmetricCase:
		return Problem{Case: c, TMax: 1.5, Medium: refsol.Vacuum{}, Pulse: refsol.AsymmetricPulse()}
	}
	panic("maxwell: unknown case")
}

// Collocation is the training point set: an equally spaced G³ grid over
// (x, y, t) as in §2.2, with region and time-bin bookkeeping.
type Collocation struct {
	N      int
	Grid   int
	Coords []float64 // N×3 (x, y, t)

	// Region partition (dielectric case; VacIdx covers everything in vacuum).
	VacIdx, DielIdx []int
	Eps             []float64 // ε_r per point

	// Time-curriculum bins (M bins over [0, TMax]).
	Bins   int
	BinOf  []int
	BinIdx [][]int
	// Mirrored batches for the symmetry loss, N×3 each: row i is row i of
	// Coords reflected through x = 0 (MirrorX) or y = 0 (MirrorY) onto the
	// periodic grid. The reflection of grid index ix is index (g−ix) mod g,
	// so every mirror row is a Coords row bit for bit (−x itself is off the
	// grid by an ulp for some x, is −0 at x = 0 and lies a period away at
	// x = −1).
	MirrorX, MirrorY []float64

	// Initial-condition set: the G² spatial grid at t = 0 with target Ez;
	// each row is the Coords row of the same (x, y) at t = 0.
	ICCoords []float64
	ICEz0    []float64
	ICN      int
}

// NewCollocation builds the grid for problem p: g points per coordinate
// (x, y periodic in [−1, 1), t equally spread over [0, TMax]) and bins time
// bins.
func NewCollocation(p Problem, g, bins int) *Collocation {
	n := g * g * g
	c := &Collocation{N: n, Grid: g, Bins: bins}
	c.Coords = make([]float64, n*3)
	c.MirrorX = make([]float64, n*3)
	c.MirrorY = make([]float64, n*3)
	c.Eps = make([]float64, n)
	c.BinOf = make([]int, n)
	c.BinIdx = make([][]int, bins)

	slab, isSlab := p.Medium.(refsol.Slab)
	i := 0
	for it := 0; it < g; it++ {
		t := p.TMax * float64(it) / float64(g-1)
		bin := it * bins / g
		if bin >= bins {
			bin = bins - 1
		}
		for iy := 0; iy < g; iy++ {
			y, my := refsol.Coord(iy, g), refsol.Coord((g-iy)%g, g)
			for ix := 0; ix < g; ix++ {
				x := refsol.Coord(ix, g)
				c.Coords[i*3+0] = x
				c.Coords[i*3+1] = y
				c.Coords[i*3+2] = t
				c.MirrorX[i*3+0] = refsol.Coord((g-ix)%g, g)
				c.MirrorX[i*3+1] = y
				c.MirrorX[i*3+2] = t
				c.MirrorY[i*3+0] = x
				c.MirrorY[i*3+1] = my
				c.MirrorY[i*3+2] = t
				c.Eps[i] = p.Medium.EpsAt(x, y)
				c.BinOf[i] = bin
				c.BinIdx[bin] = append(c.BinIdx[bin], i)
				if isSlab && slab.IsDielectric(x, y) {
					c.DielIdx = append(c.DielIdx, i)
				} else {
					c.VacIdx = append(c.VacIdx, i)
				}
				i++
			}
		}
	}

	c.ICN = g * g
	c.ICCoords = make([]float64, c.ICN*3)
	c.ICEz0 = make([]float64, c.ICN)
	j := 0
	for iy := 0; iy < g; iy++ {
		y := refsol.Coord(iy, g)
		for ix := 0; ix < g; ix++ {
			x := refsol.Coord(ix, g)
			c.ICCoords[j*3+0] = x
			c.ICCoords[j*3+1] = y
			c.ICCoords[j*3+2] = 0
			c.ICEz0[j] = p.Pulse.At(x, y)
			j++
		}
	}
	return c
}

// NewSmokeProblem is the laptop-scale variant of NewProblem: the same PDE,
// domain, medium and loss structure, but with the Gaussian pulse widened 2×
// (exp(−25r²/4) instead of exp(−25r²)). The paper's pulse carries spatial
// modes up to k ≈ 7π, which a sub-16³ collocation grid cannot resolve —
// under-resolved residuals let spuriously decaying fields through. Halving
// the spectral content keeps every qualitative phenomenon (propagation,
// reflections, BH collapse, energy balance) representable on smoke grids.
// DESIGN.md records this substitution.
func NewSmokeProblem(c Case) Problem {
	p := NewProblem(c)
	p.Pulse.SX *= 2
	p.Pulse.SY *= 2
	return p
}
