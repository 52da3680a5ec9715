package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpufeat"
)

// onBothPaths runs f as subtest "simd", with the opU4 assembly kernels, and
// as subtest "go", with the pure-Go kernels alone. The simd run is skipped
// on CPUs without AVX2.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useSIMD = v }(useSIMD)
	for _, simd := range []bool{true, false} {
		t.Run(pathName(simd), func(t *testing.T) {
			if simd && !cpufeat.AVX2 {
				t.Skip("no AVX2 on this CPU")
			}
			useSIMD = simd
			f(t)
		})
	}
}

func pathName(simd bool) string {
	if simd {
		return "simd"
	}
	return "go"
}

// sameBitsNaN reports the first index where a and b differ in their bits,
// counting every NaN as one class: NaN payloads depend on operand order,
// which neither kernel family promises.
func sameBitsNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// u4EdgeValues are the inputs where a wrongly ordered or fused operation
// shows: signed zeros, subnormals, infinities, NaN and values whose
// products overflow or underflow.
var u4EdgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-308, -1.3e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -3e300, 1e-300,
}

// u4Fill returns n values in ±[0, 1) with an edgeFrac share drawn from
// u4EdgeValues instead.
func u4Fill(rng *rand.Rand, n int, edgeFrac float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Float64() < edgeFrac {
			s[i] = u4EdgeValues[rng.Intn(len(u4EdgeValues))]
			continue
		}
		s[i] = 2*rng.Float64() - 1
	}
	return s
}

func u4State(rng *rand.Rand, n, nq int, edgeFrac float64) *State {
	dim := 1 << nq
	return &State{N: n, NQ: nq, Dim: dim, Re: u4Fill(rng, n*dim, edgeFrac), Im: u4Fill(rng, n*dim, edgeFrac)}
}

func (s *State) clone() *State {
	c := *s
	c.Re, c.Im = slices.Clone(s.Re), slices.Clone(s.Im)
	return &c
}

// u4Ranges are the sample ranges [lo, hi) the kernel tests run over: one
// sample, three, and 64, all but the first starting past sample 0. The
// states hold one sample more than hi, which must come through untouched.
var u4Ranges = [][2]int{{0, 1}, {2, 5}, {1, 65}}

// pairWalk returns the opU4 walk of the qubit pair (qa, qb) under the
// identity frame, qa as local bit 0.
func pairWalk(nq, qa, qb int) *groupWalk {
	w := newGroupWalk(nq, vqubit{1 << qa, 1 << qa}, vqubit{1 << qb, 1 << qb})
	return &w
}

// randomFrame returns the frame up to eight random CNOTs over nq ≥ 2 qubits
// leave.
func randomFrame(rng *rand.Rand, nq int) frame {
	f := identityFrame(nq)
	for _, g := range randomCNOTs(rng, nq) {
		f = f.cnot(g.C, g.Q)
	}
	return f
}

// TestU4KernelsMatchOracle pins both opU4 assembly kernels to the pure-Go
// kernels bit for bit: every qubit pair for nq 2–10, under the identity
// frame (qa < qb) and under a random CNOT frame (both local orders), over 1,
// 3 and 64 samples with non-zero lo, on states and matrices seeded with
// signed zeros, subnormals, infinities and NaN. The forward output, the
// recovered ψ and λ, and the accumulated outer product K (started non-zero,
// as after an earlier channel) must agree in every bit, NaN counted as one
// class; the samples outside [lo, hi) must be left as they were.
func TestU4KernelsMatchOracle(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(v bool) { useSIMD = v }(useSIMD)
	rng := rand.New(rand.NewSource(517))
	for nq := 2; nq <= 10; nq++ {
		fr := randomFrame(rng, nq)
		for qa := 0; qa < nq; qa++ {
			for qb := 0; qb < nq; qb++ {
				walks := map[string]*groupWalk{}
				if qa < qb {
					walks["identity"] = pairWalk(nq, qa, qb)
				}
				if qa != qb {
					w := newGroupWalk(nq, fr[qa], fr[qb])
					walks["cnot"] = &w
				}
				for _, name := range []string{"identity", "cnot"} {
					w := walks[name]
					if w == nil {
						continue
					}
					for _, r := range u4Ranges {
						lo, hi := r[0], r[1]
						edge := []float64{0, 0.05}[rng.Intn(2)]
						ctx := fmt.Sprintf("nq=%d qa=%d qb=%d %s frame, samples [%d,%d) edge=%v", nq, qa, qb, name, lo, hi, edge)
						var u, k [32]float64
						copy(u[:], u4Fill(rng, 32, edge))
						copy(k[:], u4Fill(rng, 32, edge))
						psi := u4State(rng, hi+1, nq, edge)
						lam := u4State(rng, hi+1, nq, edge)
						checkU4Paths(t, ctx, psi, lam, lo, hi, w, &u, &k)
					}
				}
			}
		}
	}
}

// TestGroupWalkCoversEachIndexOnce checks the walks the kernels run on: for
// random CNOT frames over nq 1–10 and every one or two qubits, the groups
// of two whole samples must cover each amplitude index exactly once, with
// every member's local bits read through the frame rows as its position in
// the group; under the identity frame the bases must ascend.
func TestGroupWalkCoversEachIndexOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(517))
	for nq := 1; nq <= 10; nq++ {
		for trial := 0; trial < 3; trial++ {
			fr := identityFrame(nq)
			if trial > 0 && nq > 1 {
				fr = randomFrame(rng, nq)
			}
			for qa := 0; qa < nq; qa++ {
				for qb := -1; qb < nq; qb++ {
					if qb == qa {
						continue
					}
					vs := []vqubit{fr[qa]}
					if qb >= 0 {
						vs = append(vs, fr[qb])
					}
					w := newGroupWalk(nq, vs...)
					size := 1 << len(vs)
					masks := []int{0, w.ma, w.mb, w.ma ^ w.mb}[:size]
					seen := make([]bool, 2<<nq)
					for g, base, prev := 0, 0, -1; g < len(seen)/size; g++ {
						if trial == 0 && base <= prev {
							t.Fatalf("nq=%d %v: identity-frame base %d after %d", nq, vs, base, prev)
						}
						prev = base
						for l, m := range masks {
							j := base ^ m
							for i, v := range vs {
								if parity(v.r&j) != l>>i&1 {
									t.Fatalf("nq=%d %v: member %d of group %d (index %d) reads local bits wrong", nq, vs, l, g, j)
								}
							}
							if j >= len(seen) || seen[j] {
								t.Fatalf("nq=%d %v: index %d out of range or visited twice", nq, vs, j)
							}
							seen[j] = true
						}
						base = w.walk.next(base, g)
					}
				}
			}
		}
	}
}

// checkU4Paths runs both kernels on copies of psi and lam on each path and
// compares the results bit for bit.
func checkU4Paths(t *testing.T, ctx string, psi, lam *State, lo, hi int, w *groupWalk, u, k *[32]float64) {
	t.Helper()
	type out struct {
		fwd, psi, lam *State
		k             [32]float64
	}
	run := func(simd bool) out {
		useSIMD = simd
		o := out{fwd: psi.clone(), psi: psi.clone(), lam: lam.clone(), k: *k}
		o.fwd.applyU4Range(lo, hi, w, u)
		revU4PairRange(o.psi, o.lam, lo, hi, w, u, &o.k)
		return o
	}
	want, got := run(false), run(true)
	cmp := func(name string, w, g []float64) {
		t.Helper()
		if i, ok := sameBitsNaN(w, g); !ok {
			t.Fatalf("%s: %s[%d] = %v (%#x) on simd, %v (%#x) on go", ctx, name, i,
				g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
	cmp("forward re", want.fwd.Re, got.fwd.Re)
	cmp("forward im", want.fwd.Im, got.fwd.Im)
	cmp("ψ_pre re", want.psi.Re, got.psi.Re)
	cmp("ψ_pre im", want.psi.Im, got.psi.Im)
	cmp("λ_pre re", want.lam.Re, got.lam.Re)
	cmp("λ_pre im", want.lam.Im, got.lam.Im)
	cmp("K", want.k[:], got.k[:])
	dim := psi.Dim
	for _, p := range [][2]*State{{psi, got.fwd}, {psi, got.psi}, {lam, got.lam}} {
		in, s := p[0], p[1]
		for _, o := range [][2]int{{0, lo * dim}, {hi * dim, len(in.Re)}} {
			cmp("re outside [lo, hi)", in.Re[o[0]:o[1]], s.Re[o[0]:o[1]])
			cmp("im outside [lo, hi)", in.Im[o[0]:o[1]], s.Im[o[0]:o[1]])
		}
	}
}

// TestU4PathsMatchEndToEnd runs whole forward+backward passes through the
// sharded engine on both kernel paths — every ansatz, nq 2–8, one to three
// layers, 37 samples and three non-zero tangents — and requires z, the
// tangents, dAngles, dAngleTans and dθ to agree bit for bit. This covers
// the per-parameter contraction of K and every opU4 the compiler emits, and
// the opEmbedProd step kernels every program starts with.
func TestU4PathsMatchEndToEnd(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(v bool) { useSIMD = v }(useSIMD)
	rng := rand.New(rand.NewSource(517))
	const n = 37
	opU4s := 0
	for _, a := range AllAnsatze {
		for nq := 2; nq <= 8; nq++ {
			for layers := 1; layers <= 3; layers++ {
				circ := a.Build(nq, layers)
				for _, in := range (&PQC{Circ: circ}).Program().ins {
					if in.op == opU4 {
						opU4s++
					}
				}
				angles := randAngles(rng, n, nq)
				theta := randTheta(rng, circ.NumParams)
				tans := [][]float64{randAngles(rng, n, nq), randAngles(rng, n, nq), randAngles(rng, n, nq)}
				gz := randAngles(rng, n, nq)
				gztans := [][]float64{randAngles(rng, n, nq), randAngles(rng, n, nq), randAngles(rng, n, nq)}
				useSIMD = false
				want := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
				useSIMD = true
				got := runEngine(EngineSharded, circ, n, angles, tans, theta, gz, gztans)
				check := func(name string, w, g []float64) {
					if i, ok := sameBitsNaN(w, g); !ok {
						t.Errorf("%v nq=%d layers=%d: %s[%d] = %v on simd, %v on go", a, nq, layers, name, i, g[i], w[i])
					}
				}
				check("z", want.z, got.z)
				check("dAngles", want.dAngles, got.dAngles)
				check("dθ", want.dTheta, got.dTheta)
				for k := 0; k < MaxTangents; k++ {
					check(fmt.Sprintf("ztans[%d]", k), want.ztans[k], got.ztans[k])
					check(fmt.Sprintf("dAngleTans[%d]", k), want.dTans[k], got.dTans[k])
				}
			}
		}
	}
	if opU4s < 100 {
		t.Fatalf("the corpus compiled to only %d opU4 instructions", opU4s)
	}
}

// TestU4RangeZeroAllocs pins that both opU4 range kernels, the packing of
// the matrix included, allocate nothing on either path.
func TestU4RangeZeroAllocs(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(517))
		psi, lam := u4State(rng, 4, 5, 0), u4State(rng, 4, 5, 0)
		var u, k [32]float64
		copy(u[:], u4Fill(rng, 32, 0))
		w := pairWalk(5, 1, 3)
		if a := testing.AllocsPerRun(20, func() { psi.applyU4Range(1, 4, w, &u) }); a != 0 {
			t.Errorf("applyU4Range: %v allocs/run, want 0", a)
		}
		if a := testing.AllocsPerRun(20, func() { revU4PairRange(psi, lam, 1, 4, w, &u, &k) }); a != 0 {
			t.Errorf("revU4PairRange: %v allocs/run, want 0", a)
		}
	})
}

// TestU4WrapperRejectsBadArguments pins the guards in front of the
// assembly, which has no bounds checks of its own. newGroupWalk must panic
// on qubit masks that repeat a qubit, reach past the register, are zero or
// are not independent; and on both paths the kernel wrappers must panic on
// a walk of another register width or of one qubit, a sample range past the
// state, or a short plane.
func TestU4WrapperRejectsBadArguments(t *testing.T) {
	mustPanic := func(name, kernel string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: %s did not panic", name, kernel)
			}
		}()
		f()
	}
	for _, c := range []struct {
		name   string
		va, vb vqubit
	}{
		{"same qubit twice", vqubit{2, 2}, vqubit{2, 2}},
		{"mask past the register", vqubit{1, 1}, vqubit{8, 8}},
		{"zero mask", vqubit{1, 1}, vqubit{2, 0}},
		{"not independent", vqubit{1, 1}, vqubit{3, 2}},
	} {
		mustPanic(c.name, "newGroupWalk", func() { newGroupWalk(3, c.va, c.vb) })
	}
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(517))
		var u, k [32]float64
		one := newGroupWalk(3, vqubit{1, 1})
		cases := []struct {
			name            string
			lo, hi          int
			w               *groupWalk
			shortPsi, short bool
		}{
			{name: "walk of another register", hi: 2, w: pairWalk(4, 0, 1)},
			{name: "one-qubit walk", hi: 2, w: &one},
			{name: "lo > hi", lo: 2, hi: 1, w: pairWalk(3, 0, 1)},
			{name: "hi past the batch", hi: 3, w: pairWalk(3, 0, 1)},
			{name: "short ψ plane", hi: 2, w: pairWalk(3, 0, 1), shortPsi: true},
			{name: "short λ plane", hi: 2, w: pairWalk(3, 0, 1), short: true},
		}
		for _, c := range cases {
			psi, lam := u4State(rng, 2, 3, 0), u4State(rng, 2, 3, 0)
			if c.shortPsi {
				psi.Im = psi.Im[:len(psi.Im)-1]
			}
			if c.short {
				lam.Re = lam.Re[:len(lam.Re)-1]
			}
			if !c.short {
				mustPanic(c.name, "applyU4Range", func() { psi.applyU4Range(c.lo, c.hi, c.w, &u) })
			}
			mustPanic(c.name, "revU4PairRange", func() { revU4PairRange(psi, lam, c.lo, c.hi, c.w, &u, &k) })
		}
	})
}

// TestU4Dispatch pins the run-time kernel choice on linux/amd64: a CPU
// whose /proc/cpuinfo flags list avx2 must select the assembly kernels, so a
// broken feature probe cannot silently fall back to the pure-Go path.
func TestU4Dispatch(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("the dispatch check reads linux/amd64 CPU flags")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !(cpufeat.AVX2 && useSIMD) {
			t.Fatalf("cpuinfo lists avx2 but cpufeat.AVX2=%v useSIMD=%v", cpufeat.AVX2, useSIMD)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

// TestQsimAssemblyHasNoFMA pins the rounding contract of qsim's assembly,
// the opU4 kernels (u4_amd64.s) and the opEmbedProd step kernels
// (embed_amd64.s): every term is a separately rounded multiply and add or
// subtract, as in the scalar Go code, so a fused multiply-add anywhere in
// either file would break bit-identity with the pure-Go path and across
// architectures.
func TestQsimAssemblyHasNoFMA(t *testing.T) {
	fma := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)\w*`)
	for _, file := range []string{"u4_amd64.s", "embed_amd64.s"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if found := fma.FindAll(src, -1); len(found) > 0 {
			t.Errorf("%s uses fused multiply-add: %s", file, found)
		}
		for _, op := range []string{"VMULPD", "VADDPD", "VSUBPD"} {
			if !strings.Contains(string(src), op) {
				t.Errorf("%s has no %s: is this still a qsim kernel?", file, op)
			}
		}
	}
}

// randUnitary4 returns a random 4×4 unitary (Gram–Schmidt on complex
// Gaussian rows) as row-major interleaved re/im pairs, so repeated
// application keeps a benchmark's amplitudes normal.
func randUnitary4(rng *rand.Rand) [32]float64 {
	var m [4][4]complex128
	for r := range m {
		for c := range m[r] {
			m[r][c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for p := 0; p < r; p++ {
			var dot complex128
			for c := range m[r] {
				dot += cmplx.Conj(m[p][c]) * m[r][c]
			}
			for c := range m[r] {
				m[r][c] -= dot * m[p][c]
			}
		}
		var norm float64
		for c := range m[r] {
			norm += real(m[r][c])*real(m[r][c]) + imag(m[r][c])*imag(m[r][c])
		}
		for c := range m[r] {
			m[r][c] /= complex(math.Sqrt(norm), 0)
		}
	}
	var u [32]float64
	for r := range m {
		for c := range m[r] {
			u[8*r+2*c], u[8*r+2*c+1] = real(m[r][c]), imag(m[r][c])
		}
	}
	return u
}

// benchU4 times kernel at 4 and 7 qubits on the assembly ("simd") and
// pure-Go ("go") paths side by side, over a cache-resident sample block on
// the pair (1, nq−1), and reports ns per 4-amplitude group. Each runs under
// the identity frame and, as "cnot-ring", under the frame one
// Strongly-Entangling CNOT ring leaves, whose groups are scattered.
func benchU4(b *testing.B, kernel func(psi, lam *State, n int, w *groupWalk, u, k *[32]float64)) {
	defer func(v bool) { useSIMD = v }(useSIMD)
	for _, nq := range []int{4, 7} {
		n := 1024 >> nq
		ring := identityFrame(nq)
		for q := 0; q < nq; q++ {
			ring = ring.cnot(q, (q+1)%nq)
		}
		for _, fr := range []struct {
			name string
			w    *groupWalk
		}{
			{"", pairWalk(nq, 1, nq-1)},
			{"cnot-ring/", func() *groupWalk { w := newGroupWalk(nq, ring[1], ring[nq-1]); return &w }()},
		} {
			for _, simd := range []bool{true, false} {
				b.Run(fmt.Sprintf("nq=%d/%s%s", nq, fr.name, pathName(simd)), func(b *testing.B) {
					if simd && !cpufeat.AVX2 {
						b.Skip("no AVX2 on this CPU")
					}
					useSIMD = simd
					rng := rand.New(rand.NewSource(517))
					psi, lam := u4State(rng, n, nq, 0), u4State(rng, n, nq, 0)
					u := randUnitary4(rng)
					var k [32]float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kernel(psi, lam, n, fr.w, &u, &k)
					}
					groups := float64(b.N) * float64(n<<nq/4)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/groups, "ns/group")
				})
			}
		}
	}
}

// BenchmarkU4Apply times the opU4 forward (applyU4Range) on one channel.
func BenchmarkU4Apply(b *testing.B) {
	benchU4(b, func(psi, _ *State, n int, w *groupWalk, u, _ *[32]float64) { psi.applyU4Range(0, n, w, u) })
}

// BenchmarkU4Adjoint times one channel pair's opU4 adjoint
// (revU4PairRange): both inverses and the outer-product accumulation.
func BenchmarkU4Adjoint(b *testing.B) {
	benchU4(b, func(psi, lam *State, n int, w *groupWalk, u, k *[32]float64) {
		revU4PairRange(psi, lam, 0, n, w, u, k)
	})
}
