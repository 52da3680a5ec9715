package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/qsim"
)

// hybridForward builds a miniature QPINN slice: coords → embedding → dense
// → quantum → dense, returning a scalar loss that mixes output values and
// tangents (a PDE-residual stand-in).
func hybridForward(tp *ad.Tape, reg *Registry, emb *Embedding, layers []Layer, coords []float64, n int, trainable bool) ad.Value {
	reg.Bind(tp, trainable)
	x := emb.Forward(tp, coords, n, [dual.K]bool{true, true, true})
	for _, l := range layers {
		x = l.Forward(tp, x)
	}
	f0 := dual.Col(tp, x, 0)
	f1 := dual.Col(tp, x, 1)
	res := tp.Add(tp.Sub(f0.T[2], f1.T[0]), tp.Mul(f0.V, f1.T[1]))
	return tp.Add(tp.MSE(res), tp.MSE(f0.V))
}

func buildHybrid(t *testing.T, scaling qsim.ScalingKind, engine qsim.EngineKind) (*Registry, *Embedding, []Layer, []float64, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	reg := &Registry{}
	circ := qsim.StronglyEntangling.Build(3, 2)
	emb := NewEmbedding(reg, rng, 2, 2, 4.0, 3, 1.0)
	layers := []Layer{
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
	return reg, emb, layers, coords, n
}

// TestHybridQuantumGradients is the end-to-end integration check: parameter
// gradients of a tangent-mixing loss through periodic embedding, dense
// layers and the quantum circuit layer must match finite differences; the
// learned time period among them.
func TestHybridQuantumGradients(t *testing.T) {
	for _, scaling := range []qsim.ScalingKind{qsim.ScaleNone, qsim.ScalePi, qsim.ScaleAsin, qsim.ScaleAcos, qsim.ScaleBias} {
		reg, emb, layers, coords, n := buildHybrid(t, scaling, qsim.EngineSharded)

		tp := ad.NewTape()
		loss := hybridForward(tp, reg, emb, layers, coords, n, true)
		tp.Backward(loss)
		reg.PullGrads()

		grads := make([][]float64, len(reg.Params))
		for i, p := range reg.Params {
			grads[i] = append([]float64(nil), p.Grad...)
		}

		eval := func() float64 {
			tp2 := ad.NewTape()
			return hybridForward(tp2, reg, emb, layers, coords, n, false).Scalar()
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
	reg, emb, layers, coords, n := buildHybrid(t, qsim.ScaleAsin, qsim.EngineSharded)
	tp := ad.NewTape()
	lossTrain := hybridForward(tp, reg, emb, layers, coords, n, true)
	tp2 := ad.NewTape()
	lossInfer := hybridForward(tp2, reg, emb, layers, coords, n, false)
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
		reg, emb, layers, coords, n := buildHybrid(t, qsim.ScaleAcos, engine)
		tp := ad.NewTape()
		loss := hybridForward(tp, reg, emb, layers, coords, n, true)
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

// embedFeatures evaluates the embedding's value at the given points on a
// fresh tape.
func embedFeatures(reg *Registry, e *Embedding, coords []float64) []float64 {
	tp := ad.NewTape()
	reg.Bind(tp, false)
	out := e.Forward(tp, coords, len(coords)/3, [dual.K]bool{})
	return append([]float64(nil), out.V.Data()...)
}

// TestPeriodicEmbeddingIsPeriodic: f(x) = f(x + Lx) and f(y) = f(y + Ly)
// to rounding — the property that removes the boundary-loss term (§2.2) —
// and likewise f(t) = f(t + T) for the learned period T.
func TestPeriodicEmbeddingIsPeriodic(t *testing.T) {
	reg := &Registry{}
	e := NewEmbedding(reg, rand.New(rand.NewSource(42)), 2, 2, 4.0, 8, 1.0)
	a := embedFeatures(reg, e, []float64{0.3, -0.7, 0.5})
	b := embedFeatures(reg, e, []float64{0.3 + 2, -0.7 - 2, 0.5 + 4})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("periodicity violated at feature %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPeriodicTimeUsesLearnedPeriod: changing the period parameter changes
// the features at t ≠ 0 and leaves them, bit for bit, at t = 0, where every
// period gives t̂ = 0.
func TestPeriodicTimeUsesLearnedPeriod(t *testing.T) {
	reg := &Registry{}
	e := NewEmbedding(reg, rand.New(rand.NewSource(42)), 2, 2, 4.0, 8, 1.0)
	coords := []float64{0.3, -0.7, 0.5, 0.3, -0.7, 0}
	f1 := embedFeatures(reg, e, coords)
	e.TPeriod.W[0] = 8.0
	f2 := embedFeatures(reg, e, coords)
	for i := 16; i < 32; i++ {
		if math.Float64bits(f1[i]) != math.Float64bits(f2[i]) {
			t.Fatalf("feature %d at t = 0 changed with the time period", i-16)
		}
	}
	for i := 0; i < 16; i++ {
		if math.Float64bits(f1[i]) == math.Float64bits(f2[i]) {
			t.Fatalf("feature %d at t = 0.5 ignored the learned period", i)
		}
	}
}

// TestRFFShapesAndDeterminism: 2·features outputs; Ω drawn after the period
// is registered, from the caller's source, so one seed gives the same Ω and
// the same features on every call.
func TestRFFShapesAndDeterminism(t *testing.T) {
	build := func() (*Registry, *Embedding) {
		reg := &Registry{}
		return reg, NewEmbedding(reg, rand.New(rand.NewSource(42)), 2, 2, 4.0, 8, 1.0)
	}
	reg, e := build()
	if len(reg.Params) != 1 || reg.Params[0].Name != "periodic.T" || len(e.Omega) != 6*8 {
		t.Fatalf("registry %d params, Ω %d entries", len(reg.Params), len(e.Omega))
	}
	want := rand.New(rand.NewSource(42)).NormFloat64()
	if math.Float64bits(e.Omega[0]) != math.Float64bits(want) {
		t.Fatalf("Ω[0] = %v, want the source's first normal %v", e.Omega[0], want)
	}
	coords := []float64{0.1, 0.2, 0.3, -0.4, 0.5, 0.6}
	a := embedFeatures(reg, e, coords)
	if len(a) != 2*16 {
		t.Fatalf("%d features for 2 points, want %d", len(a), 2*16)
	}
	reg2, e2 := build()
	b := embedFeatures(reg2, e2, coords)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("feature %d differs between two builds from one seed", i)
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
