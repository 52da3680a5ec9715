// Schrödinger: a PINN for the 1-D free time-dependent Schrödinger equation
// built directly from the library's layer and autodiff primitives, showing
// that the substrate generalizes beyond the Maxwell system (and covering
// the "quantum physics-informed" reading of the paper's title: PINNs for
// quantum physics, cf. Raissi et al.'s original Schrödinger benchmark).
//
//	i ψ_t = −½ ψ_xx,   ψ = u + iv,   x ∈ [−1, 1) periodic
//
// The library's forward-tangent channels carry first derivatives only, so
// the second-order equation is recast as a first-order system with
// auxiliary outputs p = u_x and q = v_x:
//
//	res1 = u_t + ½ q_x      res3 = p − u_x
//	res2 = v_t − ½ p_x      res4 = q − v_x
//
// plus a probability-conservation residual (the analogue of the paper's
// Poynting energy term): ∂t|ψ|²/2 + ½ ∂x(u q − v p) = 0, expressible as
// u·u_t + v·v_t + ½(u·q_x − v·p_x).
package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/fft"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/report"
)

const (
	domainL = 2.0
	tMax    = 0.5
	sigma   = 0.15                      // wave-packet width
	k0      = 2 * math.Pi * 2 / domainL // carrier momentum (mode 2)
)

// psi0 is the initial wave packet (periodized Gaussian × plane wave).
func psi0(x float64) complex128 {
	var acc complex128
	for img := -2; img <= 2; img++ { // periodic images
		xx := x + float64(img)*domainL
		env := math.Exp(-xx * xx / (2 * sigma * sigma))
		acc += complex(env, 0) * cmplx.Exp(complex(0, k0*xx))
	}
	return acc
}

// exactSolution evolves the initial condition spectrally:
// ψ̂(k, t) = ψ̂(k, 0)·e^{−i k² t / 2}.
type exactSolution struct {
	n    int
	hat0 []complex128
}

func newExact(n int) *exactSolution {
	hat := make([]complex128, n)
	for i := 0; i < n; i++ {
		hat[i] = psi0(-1 + domainL*float64(i)/float64(n))
	}
	fft.NewPlan(n).Forward(hat)
	return &exactSolution{n: n, hat0: hat}
}

func (e *exactSolution) at(x, t float64) complex128 {
	var acc complex128
	for b := 0; b < e.n; b++ {
		k := 2 * math.Pi * float64(fft.FreqIndex(b, e.n)) / domainL
		phase := k*(x+1) - k*k*t/2
		acc += e.hat0[b] * cmplx.Exp(complex(0, phase))
	}
	return acc / complex(float64(e.n), 0)
}

// model is a periodic-feature MLP with 4 outputs (u, v, p, q).
type model struct {
	reg    *nn.Registry
	embed  *nn.Embedding
	layers []nn.Layer
}

func newModel(seed int64) *model {
	rng := rand.New(rand.NewSource(seed))
	reg := &nn.Registry{}
	m := &model{reg: reg}
	// The input embedding reuses the Maxwell layer with a dummy y column.
	m.embed = nn.NewEmbedding(reg, rng, domainL, domainL, 2.0, 16, 1.0)
	m.layers = append(m.layers, nn.NewDense(reg, rng, "h1", 32, 48, true))
	m.layers = append(m.layers, nn.NewDense(reg, rng, "h2", 48, 48, true))
	m.layers = append(m.layers, nn.NewDense(reg, rng, "out", 48, 4, false))
	return m
}

func (m *model) forward(tp *ad.Tape, coords []float64, n int, tangents bool) dual.D {
	x := m.embed.Forward(tp, coords, n, [dual.K]bool{tangents, false, tangents}) // ∂/∂x and ∂/∂t only
	for _, l := range m.layers {
		x = l.Forward(tp, x)
	}
	return x
}

func main() {
	const (
		gridX, gridT = 24, 16
		epochs       = 600
	)
	m := newModel(7)

	// Collocation grid over (x, t); y is a zero dummy column.
	n := gridX * gridT
	coords := make([]float64, n*3)
	i := 0
	for it := 0; it < gridT; it++ {
		t := tMax * float64(it) / float64(gridT-1)
		for ix := 0; ix < gridX; ix++ {
			coords[i*3+0] = -1 + domainL*float64(ix)/float64(gridX)
			coords[i*3+2] = t
			i++
		}
	}
	// IC batch.
	icN := gridX
	icCoords := make([]float64, icN*3)
	icU := make([]float64, icN)
	icV := make([]float64, icN)
	for ix := 0; ix < gridX; ix++ {
		x := -1 + domainL*float64(ix)/float64(gridX)
		icCoords[ix*3] = x
		c := psi0(x)
		icU[ix] = real(c)
		icV[ix] = imag(c)
	}

	adam := opt.NewAdam(2e-3, m.reg.Buffers(), m.reg.Grads)
	tp := ad.NewTape()
	var lossHist []float64
	for epoch := 0; epoch < epochs; epoch++ {
		tp.Reset()
		m.reg.Bind(tp, true)
		out := m.forward(tp, coords, n, true)
		u := dual.Col(tp, out, 0)
		v := dual.Col(tp, out, 1)
		p := dual.Col(tp, out, 2)
		q := dual.Col(tp, out, 3)

		res1 := tp.Add(u.T[2], tp.Scale(q.T[0], 0.5))
		res2 := tp.Sub(v.T[2], tp.Scale(p.T[0], 0.5))
		res3 := tp.Sub(p.V, u.T[0])
		res4 := tp.Sub(q.V, v.T[0])
		// Probability-conservation residual (the energy-term analogue).
		cons := tp.Add(
			tp.Add(tp.Mul(u.V, u.T[2]), tp.Mul(v.V, v.T[2])),
			tp.Scale(tp.Sub(tp.Mul(u.V, q.T[0]), tp.Mul(v.V, p.T[0])), 0.5),
		)
		phys := tp.AddScalars(tp.MSE(res1), tp.MSE(res2), tp.MSE(res3), tp.MSE(res4))

		outIC := m.forward(tp, icCoords, icN, false)
		icLoss := tp.Add(
			tp.MSE(tp.Sub(dual.Col(tp, outIC, 0).V, tp.Const(icN, 1, icU))),
			tp.MSE(tp.Sub(dual.Col(tp, outIC, 1).V, tp.Const(icN, 1, icV))),
		)
		total := tp.AddScalars(phys, tp.Scale(icLoss, 10), tp.Scale(tp.MSE(cons), 10))
		tp.Backward(total)
		m.reg.PullGrads()
		adam.Step()
		lossHist = append(lossHist, total.Scalar())
	}

	// Evaluate |ψ| against the exact spectral solution.
	exact := newExact(128)
	evalN := 48
	var num, den float64
	for it := 0; it <= 4; it++ {
		t := tMax * float64(it) / 4
		evalCoords := make([]float64, evalN*3)
		for ix := 0; ix < evalN; ix++ {
			evalCoords[ix*3] = -1 + domainL*float64(ix)/float64(evalN)
			evalCoords[ix*3+2] = t
		}
		tp2 := ad.NewTape()
		m.reg.Bind(tp2, false)
		out := m.forward(tp2, evalCoords, evalN, false)
		uD := dual.Col(tp2, out, 0).V.Data()
		vD := dual.Col(tp2, out, 1).V.Data()
		for ix := 0; ix < evalN; ix++ {
			x := evalCoords[ix*3]
			want := exact.at(x, t)
			du := uD[ix] - real(want)
			dv := vD[ix] - imag(want)
			num += du*du + dv*dv
			den += real(want)*real(want) + imag(want)*imag(want)
		}
	}
	l2 := math.Sqrt(num / den)

	fmt.Printf("1-D free Schrödinger PINN (first-order system, %d params)\n", m.reg.Count())
	fmt.Printf("loss: %.3e → %.3e over %d epochs\n", lossHist[0], lossHist[len(lossHist)-1], epochs)
	fmt.Printf("relative L2 error of ψ vs exact spectral solution: %.4f\n", l2)
	report.LinePlot(os.Stdout, "training loss (log scale)", 72, 12, true,
		map[string][]float64{"loss": lossHist})
}
