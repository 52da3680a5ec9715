package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/qsim"
)

// hybridForward builds a miniature QPINN slice: coords → periodic → dense →
// quantum → dense, returning a scalar loss that mixes output values and
// tangents (a PDE-residual stand-in).
func hybridForward(tp *ad.Tape, reg *Registry, layers []Layer, coords []float64, n int, trainable bool) ad.Value {
	reg.Bind(tp, trainable)
	x := dual.FromValue(tp.Leaf(n, 3, coords, false))
	for k := 0; k < 3; k++ {
		tan := make([]float64, n*3)
		for i := 0; i < n; i++ {
			tan[i*3+k] = 1
		}
		x.T[k] = tp.Const(n, 3, tan)
	}
	for _, l := range layers {
		x = l.Forward(tp, x)
	}
	f0 := dual.Col(tp, x, 0)
	f1 := dual.Col(tp, x, 1)
	res := tp.Add(tp.Sub(f0.T[2], f1.T[0]), tp.Mul(f0.V, f1.T[1]))
	return tp.Add(tp.MSE(res), tp.MSE(f0.V))
}

func buildHybrid(t *testing.T, scaling qsim.ScalingKind, engine qsim.EngineKind) (*Registry, []Layer, []float64, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	reg := &Registry{}
	circ := qsim.StronglyEntangling.Build(3, 2)
	layers := []Layer{
		NewPeriodic(reg, 2, 2, 4.0),
		NewDense(reg, rng, "h1", 6, 5, true),
		NewDense(reg, rng, "adapter", 5, 3, true),
		NewQuantum(reg, rng, circ, scaling, qsim.InitRegular, engine),
		NewDense(reg, rng, "out", 3, 2, false),
	}
	n := 4
	coords := make([]float64, n*3)
	for i := range coords {
		coords[i] = rng.Float64()*1.6 - 0.8
	}
	return reg, layers, coords, n
}

// TestHybridQuantumGradients is the end-to-end integration check: parameter
// gradients of a tangent-mixing loss through periodic embedding, dense
// layers and the quantum circuit layer must match finite differences.
func TestHybridQuantumGradients(t *testing.T) {
	for _, scaling := range []qsim.ScalingKind{qsim.ScaleNone, qsim.ScalePi, qsim.ScaleAsin, qsim.ScaleAcos, qsim.ScaleBias} {
		reg, layers, coords, n := buildHybrid(t, scaling, qsim.EngineSharded)

		tp := ad.NewTape()
		loss := hybridForward(tp, reg, layers, coords, n, true)
		tp.Backward(loss)
		reg.PullGrads()

		grads := make([][]float64, len(reg.Params))
		for i, p := range reg.Params {
			grads[i] = append([]float64(nil), p.Grad...)
		}

		eval := func() float64 {
			tp2 := ad.NewTape()
			return hybridForward(tp2, reg, layers, coords, n, false).Scalar()
		}

		const h = 1e-6
		for pi, p := range reg.Params {
			for j := range p.W {
				orig := p.W[j]
				p.W[j] = orig + h
				fp := eval()
				p.W[j] = orig - h
				fm := eval()
				p.W[j] = orig
				num := (fp - fm) / (2 * h)
				got := grads[pi][j]
				if math.Abs(got-num) > 5e-4*(1+math.Abs(num)) {
					t.Errorf("%v param %s[%d]: grad %v vs fd %v", scaling, p.Name, j, got, num)
				}
			}
		}
	}
}

// TestQuantumLayerInferenceMatchesTraining: the no-grad path must produce
// identical outputs to the training path.
func TestQuantumLayerInferenceMatchesTraining(t *testing.T) {
	reg, layers, coords, n := buildHybrid(t, qsim.ScaleAsin, qsim.EngineSharded)
	tp := ad.NewTape()
	lossTrain := hybridForward(tp, reg, layers, coords, n, true)
	tp2 := ad.NewTape()
	lossInfer := hybridForward(tp2, reg, layers, coords, n, false)
	if math.Abs(lossTrain.Scalar()-lossInfer.Scalar()) > 1e-12 {
		t.Fatalf("training loss %v ≠ inference loss %v", lossTrain.Scalar(), lossInfer.Scalar())
	}
}

// TestQuantumLayerEngineParity: the full hybrid network produces identical
// losses and parameter gradients under every circuit-execution engine.
func TestQuantumLayerEngineParity(t *testing.T) {
	type result struct {
		loss  float64
		grads [][]float64
	}
	run := func(engine qsim.EngineKind) result {
		reg, layers, coords, n := buildHybrid(t, qsim.ScaleAcos, engine)
		tp := ad.NewTape()
		loss := hybridForward(tp, reg, layers, coords, n, true)
		tp.Backward(loss)
		reg.PullGrads()
		var grads [][]float64
		for _, p := range reg.Params {
			grads = append(grads, append([]float64(nil), p.Grad...))
		}
		return result{loss.Scalar(), grads}
	}
	ref := run(qsim.EngineLegacy)
	for _, engine := range []qsim.EngineKind{qsim.EngineSharded, qsim.EngineNaive} {
		got := run(engine)
		if math.Abs(got.loss-ref.loss) > 1e-10 {
			t.Errorf("engine %v: loss %v ≠ legacy %v", engine, got.loss, ref.loss)
		}
		for pi := range ref.grads {
			for j := range ref.grads[pi] {
				if math.Abs(got.grads[pi][j]-ref.grads[pi][j]) > 1e-10 {
					t.Errorf("engine %v: grad[%d][%d] %v ≠ legacy %v",
						engine, pi, j, got.grads[pi][j], ref.grads[pi][j])
				}
			}
		}
	}
}

// TestPeriodicEmbeddingIsPeriodic: f(x) = f(x + Lx) and f(y) = f(y + Ly)
// exactly — the property that removes the boundary-loss term (§2.2).
func TestPeriodicEmbeddingIsPeriodic(t *testing.T) {
	reg := &Registry{}
	p := NewPeriodic(reg, 2, 2, 4.0)
	tp := ad.NewTape()
	reg.Bind(tp, false)
	coords := []float64{0.3, -0.7, 0.5}
	shifted := []float64{0.3 + 2, -0.7 - 2, 0.5}
	a := p.Forward(tp, dual.FromValue(tp.Leaf(1, 3, coords, false)))
	b := p.Forward(tp, dual.FromValue(tp.Leaf(1, 3, shifted, false)))
	for i := range a.V.Data() {
		if math.Abs(a.V.Data()[i]-b.V.Data()[i]) > 1e-12 {
			t.Fatalf("periodicity violated at feature %d: %v vs %v", i, a.V.Data()[i], b.V.Data()[i])
		}
	}
}

// TestPeriodicTimeUsesLearnedPeriod: changing the period parameter changes
// the time features but not the spatial ones.
func TestPeriodicTimeUsesLearnedPeriod(t *testing.T) {
	reg := &Registry{}
	p := NewPeriodic(reg, 2, 2, 4.0)
	coords := []float64{0.3, -0.7, 0.5}
	featAt := func() []float64 {
		tp := ad.NewTape()
		reg.Bind(tp, false)
		out := p.Forward(tp, dual.FromValue(tp.Leaf(1, 3, coords, false)))
		return append([]float64(nil), out.V.Data()...)
	}
	f1 := featAt()
	p.TPeriod.W[0] = 8.0
	f2 := featAt()
	for i := 0; i < 4; i++ {
		if math.Float64bits(f1[i]) != math.Float64bits(f2[i]) {
			t.Fatalf("spatial feature %d changed with time period", i)
		}
	}
	if math.Float64bits(f1[4]) == math.Float64bits(f2[4]) && math.Float64bits(f1[5]) == math.Float64bits(f2[5]) {
		t.Fatal("time features ignored the learned period")
	}
}

// TestRFFShapesAndDeterminism: 2·features outputs, fixed across calls.
func TestRFFShapesAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := NewRFF(rng, 6, 8, 1.0)
	tp := ad.NewTape()
	x := dual.FromValue(tp.Leaf(2, 6, make([]float64, 12), false))
	out := f.Forward(tp, x)
	if out.V.Cols() != 16 {
		t.Fatalf("RFF output cols = %d, want 16", out.V.Cols())
	}
	// cos(0) = 1, sin(0) = 0 for zero input.
	d := out.V.Data()
	for j := 0; j < 8; j++ {
		if math.Abs(d[j]-1) > 1e-15 || math.Abs(d[8+j]) > 1e-15 {
			t.Fatalf("RFF at zero input: cos=%v sin=%v", d[j], d[8+j])
		}
	}
}

// TestRegistryCount: parameter accounting used by the Table 1 checks.
func TestRegistryCount(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	reg := &Registry{}
	NewDense(reg, rng, "a", 4, 3, true)
	NewDense(reg, rng, "b", 3, 2, false)
	if got := reg.Count(); got != 4*3+3+3*2+2 {
		t.Fatalf("Count = %d", got)
	}
}

// TestTrigControlLayer: the §6.2(b) control must (a) carry no parameters,
// (b) produce cos(scale(a)) exactly, and (c) propagate exact tangents.
func TestTrigControlLayer(t *testing.T) {
	layer := NewTrig(qsim.ScaleAcos)
	tp := ad.NewTape()
	n := 5
	vals := []float64{-0.8, -0.3, 0, 0.4, 0.9}
	x := dual.FromValue(tp.Leaf(n, 1, vals, false))
	tanData := []float64{1, 1, 1, 1, 1}
	x.T[0] = tp.Const(n, 1, tanData)
	out := layer.Forward(tp, x)
	// cos(acos(a)) = a — identity transfer, the same anchor as the PQC test.
	for i, a := range vals {
		if math.Abs(out.V.Data()[i]-a) > 1e-12 {
			t.Fatalf("trig acos transfer at %d: %v want %v", i, out.V.Data()[i], a)
		}
	}
	// d/da cos(acos(a)) = 1.
	for i, g := range out.T[0].Data() {
		if math.Abs(g-1) > 1e-9 {
			t.Fatalf("trig tangent at %d: %v want 1", i, g)
		}
	}
}

// TestQuantumWorkspaceRecycledWithoutBackward guards the free-list leak: on
// the needsGrad path the workspace used to be released only inside the
// backward closure, so every tape reset without a Backward call stranded one
// workspace and forced a fresh allocation on the next forward. With the
// reset hook, repeated grad-bound forwards that never run Backward must keep
// recycling a single workspace.
func TestQuantumWorkspaceRecycledWithoutBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	reg := &Registry{}
	circ := qsim.StronglyEntangling.Build(3, 2)
	q := NewQuantum(reg, rng, circ, qsim.ScaleNone, qsim.InitRegular, qsim.EngineSharded)

	n := 4
	coords := make([]float64, n*3)
	for i := range coords {
		coords[i] = rng.Float64()*2 - 1
	}
	tp := ad.NewTape()
	const iters = 20
	for iter := 0; iter < iters; iter++ {
		tp.Reset()
		reg.Bind(tp, true)
		x := dual.FromValue(tp.Leaf(n, 3, coords, true))
		out := q.Forward(tp, x)
		if !out.V.NeedsGrad() {
			t.Fatal("forward did not take the needsGrad path")
		}
		// No Backward: the tape is abandoned and reset on the next iteration.
	}
	tp.Reset()
	if got := len(q.free[n]); got != 1 {
		t.Fatalf("free list holds %d workspaces after %d backward-less forwards, want 1 (recycled)", got, iters)
	}

	// The normal path still releases exactly once: a forward+backward cycle
	// must not double-release the workspace the reset hook already knows.
	tp.Reset()
	reg.Bind(tp, true)
	x := dual.FromValue(tp.Leaf(n, 3, coords, true))
	out := q.Forward(tp, x)
	tp.Backward(tp.SumAll(out.V))
	tp.Reset()
	if got := len(q.free[n]); got != 1 {
		t.Fatalf("free list holds %d workspaces after forward+backward+reset, want 1", got)
	}
}
