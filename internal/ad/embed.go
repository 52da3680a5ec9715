package ad

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/par"
)

// An embedding op is the network's whole input stage as one tape op: the
// periodic features p = [sin x̂, cos x̂, sin ŷ, cos ŷ, sin t̂, cos t̂] of a point
// (x, y, t), with x̂ = x·2π/Lx, ŷ = y·2π/Ly and t̂ = t·2π/T for a learned
// period T, projected by a fixed 6×F matrix Ω and mapped to [cos z | sin z],
// z = p·Ω. Each column of p depends on one coordinate, so the phase
// separates, z_j = X_j(x) + Y_j(y) + T_j(t), with X_j = sin x̂·Ω0j + cos x̂·Ω1j
// and likewise Y_j and T_j. The op computes the sine and cosine of each
// partial phase, and its derivative, once per distinct coordinate value
// (coordinates are deduplicated by their bits), and forms every point's
// output by two angle additions: no trigonometric call is made per point.
// A point's output therefore depends on its own coordinate bits alone.
type embedOp struct {
	n, f   int
	coords []float64 // n×3, (x, y, t) rows
	omega  []float64 // 6×f
	freq   [3]float64
	period int32 // the 1×1 period node; its gradient is the op's only one
	tcols  []int // the coordinate of each tangent output, ascending
	v, gv  []float64
	tv, tg [3][]float64 // tangent outputs' values and gradients, tcols order
	runner int32

	// Deduplication: id holds, for every point and coordinate, the index of
	// its value among vals; the values of coordinate c are
	// vals[start[c]:start[c+1]].
	id    []int32
	vals  []float64
	start [4]int
	keys  []uint64 // open-addressing table, bits → slot's index in vals
	slots []int32  // -1 for an empty slot

	// Per distinct value u, rows of f: the partial phase P(u)'s cosine and
	// sine, its derivative dP/du, and for t's values its derivative ∂P/∂ω
	// and that of dP/dt = ω·D, where ω = 2π/T and D = ∂P/∂t̂.
	cosP, sinP, dP []float64
	wP, wD         []float64
	gz, part       []float64 // backward: dL/dz per point and column; per-point dL/dω

	// The op's par bodies, made once per op slot so that a reused tape
	// makes no closure per call.
	tables, fwd, bwd func(s, e int)
}

// FourierEmbed evaluates the input embedding (see embedOp) of the n points
// in coords, n×3 row-major (x, y, t); the coordinates carry no gradient.
// scale holds the fixed angular frequencies 2π/Lx and 2π/Ly; period is the
// 1×1 learned period T; omega is the 6×features projection, its rows
// multiplying sin x̂, cos x̂, sin ŷ, cos ŷ, sin t̂, cos t̂. The value is
// n×2·features. For each k with tangents[k] set, out[k] receives the
// derivative of the value with respect to coordinate k, −sin z⊙∂z/∂k and
// cos z⊙∂z/∂k; the other out[k] are left invalid. The outputs need a
// gradient exactly when period does, and the op's backward yields dL/dT.
func (t *Tape) FourierEmbed(coords []float64, n int, scale [2]float64, period Value, omega []float64, features int, tangents [3]bool, out []Value) Value {
	np := &t.nodes[period.i]
	switch {
	case len(coords) != 3*n:
		panic(fmt.Sprintf("ad: FourierEmbed coords %d ≠ %d×3", len(coords), n))
	case np.rows != 1 || np.cols != 1:
		panic(fmt.Sprintf("ad: FourierEmbed period is %d×%d", np.rows, np.cols))
	case features < 1 || len(omega) != 6*features:
		panic(fmt.Sprintf("ad: FourierEmbed projection %d ≠ 6×%d", len(omega), features))
	case len(out) != 3:
		panic(fmt.Sprintf("ad: FourierEmbed %d tangent outputs", len(out)))
	}
	// Reset truncates embeds but keeps the ops past its length, with their
	// scratch, for the next build.
	ei := len(t.embeds)
	if ei < cap(t.embeds) && t.embeds[:ei+1][ei] != nil {
		t.embeds = t.embeds[:ei+1]
	} else {
		t.embeds = append(t.embeds, newEmbedOp())
	}
	e := t.embeds[ei]
	e.n, e.f, e.coords, e.omega, e.period = n, features, coords, omega, period.i
	e.freq = [3]float64{scale[0], scale[1], 2 * math.Pi / np.val[0]}
	ng := np.grad != nil

	v, nv := t.newNode(OpEmbed, period.i, int32(ei), n, 2*features, ng)
	e.v, e.gv = nv.val, nv.grad
	e.tcols = e.tcols[:0]
	for k, on := range tangents {
		out[k] = Value{}
		if !on {
			continue
		}
		o, no := t.newNode(OpEmbed, period.i, int32(ei), n, 2*features, ng)
		e.tv[len(e.tcols)], e.tg[len(e.tcols)] = no.val, no.grad
		e.tcols = append(e.tcols, k)
		out[k] = o
	}
	e.runner = t.lastWithGrad(v.i)

	e.dedupe()
	nd := len(e.vals)
	e.cosP, e.sinP = grow(e.cosP, nd*features), grow(e.sinP, nd*features)
	e.dP = grow(e.dP, nd*features)
	if ng {
		nt := e.start[3] - e.start[2]
		e.wP, e.wD = grow(e.wP, nt*features), grow(e.wD, nt*features)
	}
	par.ForGrain(nd, 4*features, e.tables)
	par.ForGrain(n, 2*features*(1+len(e.tcols)), e.fwd)
	return v
}

func newEmbedOp() *embedOp {
	e := &embedOp{}
	e.tables = func(s, end int) { e.tablesRange(s, end) }
	e.fwd = func(s, end int) { e.fwdRange(s, end) }
	e.bwd = func(s, end int) { e.bwdRange(s, end) }
	return e
}

// grow returns buf resliced to n, reallocated only when too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// dedupe numbers each coordinate column's distinct values by their bits, in
// order of first appearance.
func (e *embedOp) dedupe() {
	n := e.n
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(e.keys) < size {
		e.keys, e.slots = make([]uint64, size), make([]int32, size)
	}
	keys, slots := e.keys[:size], e.slots[:size]
	mask := uint64(size - 1)
	shift := 65 - uint(bits.Len(uint(size)))
	if cap(e.id) < 3*n {
		e.id = make([]int32, 3*n)
	}
	e.id = e.id[:3*n]
	e.vals = e.vals[:0]
	for c := 0; c < 3; c++ {
		e.start[c] = len(e.vals)
		for i := range slots {
			slots[i] = -1
		}
		for i := 0; i < n; i++ {
			x := e.coords[3*i+c]
			b := math.Float64bits(x)
			h := (b * 0x9e3779b97f4a7c15) >> shift
			for slots[h] >= 0 && keys[h] != b {
				h = (h + 1) & mask
			}
			if slots[h] < 0 {
				keys[h], slots[h] = b, int32(len(e.vals))
				e.vals = append(e.vals, x)
			}
			e.id[3*i+c] = slots[h]
		}
	}
	e.start[3] = len(e.vals)
}

// column returns the coordinate whose distinct values hold index u.
func (e *embedOp) column(u int) int {
	switch {
	case u < e.start[1]:
		return 0
	case u < e.start[2]:
		return 1
	}
	return 2
}

// tablesRange fills the rows of distinct values [s, end).
//
//torq:hotpath
func (e *embedOp) tablesRange(s, end int) {
	f := e.f
	wantT := len(e.tcols) > 0 && e.tcols[len(e.tcols)-1] == 2
	for u := s; u < end; u++ {
		c := e.column(u)
		val, w := e.vals[u], e.freq[c]
		sa, ca := sincos(val * w)
		o0, o1 := e.omega[2*c*f:(2*c+1)*f], e.omega[(2*c+1)*f:(2*c+2)*f]
		cp, sp, dp := e.cosP[u*f:(u+1)*f], e.sinP[u*f:(u+1)*f], e.dP[u*f:(u+1)*f]
		o0, o1, sp, dp = o0[:len(cp)], o1[:len(cp)], sp[:len(cp)], dp[:len(cp)]
		for j := range cp {
			sp[j], cp[j] = sincos(sa*o0[j] + ca*o1[j])
			dp[j] = (ca*o0[j] - sa*o1[j]) * w
		}
		if c != 2 || e.gv == nil {
			continue
		}
		r := u - e.start[2]
		wp, wd := e.wP[r*f:(r+1)*f], e.wD[r*f:(r+1)*f]
		wp, wd = wp[:len(cp)], wd[:len(cp)]
		for j := range wp {
			d := ca*o0[j] - sa*o1[j]
			wp[j] = val * d
			if wantT {
				wd[j] = d - w*val*(sa*o0[j]+ca*o1[j])
			}
		}
	}
}

// fwdRange writes the value and tangent rows of points [s, end).
//
//torq:hotpath
func (e *embedOp) fwdRange(s, end int) {
	f := e.f
	for i := s; i < end; i++ {
		ux, uy, ut := int(e.id[3*i])*f, int(e.id[3*i+1])*f, int(e.id[3*i+2])*f
		cx, sx := e.cosP[ux:ux+f], e.sinP[ux:ux+f]
		cy, sy := e.cosP[uy:uy+f], e.sinP[uy:uy+f]
		ct, st := e.cosP[ut:ut+f], e.sinP[ut:ut+f]
		rc, rs := e.v[2*i*f:(2*i+1)*f], e.v[(2*i+1)*f:(2*i+2)*f]
		sx, cy, sy, ct, st = sx[:len(cx)], cy[:len(cx)], sy[:len(cx)], ct[:len(cx)], st[:len(cx)]
		rc, rs = rc[:len(cx)], rs[:len(cx)]
		for j := range cx {
			cxy := cx[j]*cy[j] - sx[j]*sy[j]
			sxy := sx[j]*cy[j] + cx[j]*sy[j]
			rc[j] = cxy*ct[j] - sxy*st[j]
			rs[j] = sxy*ct[j] + cxy*st[j]
		}
		for l, c := range e.tcols {
			u := int(e.id[3*i+c]) * f
			d := e.dP[u : u+f]
			tc, ts := e.tv[l][2*i*f:(2*i+1)*f], e.tv[l][(2*i+1)*f:(2*i+2)*f]
			d, tc, ts = d[:len(rc)], tc[:len(rc)], ts[:len(rc)]
			for j := range rc {
				tc[j] = -rs[j] * d[j]
				ts[j] = rc[j] * d[j]
			}
		}
	}
}

// bwdRange writes dL/dω of each point in [s, end) to part: dL/dz_j from the
// value and every tangent, times ∂z_j/∂ω, plus, for a t tangent, dL/d(dz_j/dt)
// times its derivative by ω.
//
//torq:hotpath
func (e *embedOp) bwdRange(s, end int) {
	f := e.f
	for i := s; i < end; i++ {
		rc, rs := e.v[2*i*f:(2*i+1)*f], e.v[(2*i+1)*f:(2*i+2)*f]
		gc, gs := e.gv[2*i*f:(2*i+1)*f], e.gv[(2*i+1)*f:(2*i+2)*f]
		gz := e.gz[i*f : (i+1)*f]
		rs, gc, gs, gz = rs[:len(rc)], gc[:len(rc)], gs[:len(rc)], gz[:len(rc)]
		for j := range rc {
			gz[j] = gs[j]*rc[j] - gc[j]*rs[j]
		}
		ut := int(e.id[3*i+2]) - e.start[2]
		var acc float64
		for l, c := range e.tcols {
			u := int(e.id[3*i+c]) * f
			d := e.dP[u : u+f]
			tc, ts := e.tg[l][2*i*f:(2*i+1)*f], e.tg[l][(2*i+1)*f:(2*i+2)*f]
			d, tc, ts = d[:len(rc)], tc[:len(rc)], ts[:len(rc)]
			for j := range rc {
				gz[j] -= d[j] * (tc[j]*rc[j] + ts[j]*rs[j])
			}
			if c == 2 {
				wd := e.wD[ut*f : (ut+1)*f]
				wd = wd[:len(rc)]
				for j := range rc {
					acc += (ts[j]*rc[j] - tc[j]*rs[j]) * wd[j]
				}
			}
		}
		wp := e.wP[ut*f : (ut+1)*f]
		wp = wp[:len(gz)]
		for j := range gz {
			acc += gz[j] * wp[j]
		}
		e.part[i] = acc
	}
}

// embedBackward runs the op's whole backward: one pass over the points, then
// the per-point partials summed in point order, so dL/dT is the same for
// any worker count.
func (t *Tape) embedBackward(e *embedOp) {
	e.gz, e.part = grow(e.gz, e.n*e.f), grow(e.part, e.n)
	par.ForGrain(e.n, 2*e.f*(1+len(e.tcols)), e.bwd)
	var sum float64
	for _, p := range e.part {
		sum += p
	}
	g, first := t.gradOf(e.period)
	dT := sum * -(e.freq[2] / t.nodes[e.period].val[0])
	if first {
		g[0] = 0 + dT
	} else {
		g[0] += dT
	}
}
