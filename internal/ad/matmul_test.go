package ad

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/par"
)

// The reference kernels are the plain triple loops the tiled kernels
// replaced, kept serial as the bit-identity oracle; like gemmGo they write
// each product as float64(x*y), so no architecture fuses it into the add.
// Their av == 0 skips are part of the original semantics: on finite inputs a
// skipped zero product cannot change a sum that is not -0, so the oracle and
// the tiled kernels agree bit for bit there, and differ on non-finite inputs
// (see TestGEMMPropagatesNonFinite).

func refMMAcc(c, a, b []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		ci := c[i*m : (i+1)*m]
		ai := a[i*k : (i+1)*k]
		for l, av := range ai {
			if av == 0 {
				continue
			}
			bl := b[l*m : (l+1)*m]
			for j, bv := range bl {
				ci[j] += float64(av * bv)
			}
		}
	}
}

func refMMNTAcc(c, a, b []float64, n, m, k int) {
	for i := 0; i < n; i++ {
		ai := a[i*m : (i+1)*m]
		ci := c[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			bj := b[j*m : (j+1)*m]
			var sum float64
			for l, av := range ai {
				sum += float64(av * bj[l])
			}
			ci[j] += sum
		}
	}
}

func refMMTNAcc(c, a, b []float64, n, k, m int) {
	for l := 0; l < k; l++ {
		cl := c[l*m : (l+1)*m]
		for i := 0; i < n; i++ {
			av := a[i*k+l]
			if av == 0 {
				continue
			}
			bi := b[i*m : (i+1)*m]
			for j, bv := range bi {
				cl[j] += float64(av * bv)
			}
		}
	}
}

// gemmCase describes one GEMM of a dense layer X(n×k)·W(k×m) in the layer's
// own n×k×m terms: the operand lengths, the gemm call the tape makes for it
// (B as passed, and the strides of matmul.go's table), and its oracle.
type gemmCase struct {
	name    string
	x, y, c func(n, k, m int) int // lengths of the two operands and of C
	layout  func(y []float64, n, k, m int) gemmLayout
	ref     func(c, x, y []float64, n, k, m int)
}

// gemmLayout is one row of matmul.go's stride table, in the mode that adds
// to C (NN as acc).
type gemmLayout struct {
	b                           []float64
	rows, cols, red, aRow, aRed int
	mode                        gemmMode
}

// kernel runs the layout's GEMM as the tape does: adding to C, or with
// store as a first writer (and NN's forward) does.
func (g gemmCase) kernel(c, x, y []float64, n, k, m int, store bool) {
	l := g.layout(y, n, k, m)
	if store {
		l.mode = gemmStore
	}
	gemm(c, x, l.b, l.rows, l.cols, l.red, l.aRow, l.aRed, l.mode)
}

// testPanel is the NT case's packed-Bᵀ buffer, reused like Tape.panel.
var testPanel []float64

var gemmCases = []gemmCase{
	{
		name: "NN", // C(n×m) += X·W, the forward
		x:    func(n, k, m int) int { return n * k },
		y:    func(n, k, m int) int { return k * m },
		c:    func(n, k, m int) int { return n * m },
		layout: func(y []float64, n, k, m int) gemmLayout {
			return gemmLayout{y, n, m, k, k, 1, gemmAcc}
		},
		ref: refMMAcc,
	},
	{
		name: "NT", // dX(n×k) += dC(n×m)·Wᵀ
		x:    func(n, k, m int) int { return n * m },
		y:    func(n, k, m int) int { return k * m },
		c:    func(n, k, m int) int { return n * k },
		layout: func(y []float64, n, k, m int) gemmLayout {
			return gemmLayout{ntPanel(&testPanel, y, m, k), n, k, m, m, 1, gemmFresh}
		},
		ref: func(c, x, y []float64, n, k, m int) { refMMNTAcc(c, x, y, n, m, k) },
	},
	{
		name: "TN", // dW(k×m) += Xᵀ·dC(n×m)
		x:    func(n, k, m int) int { return n * k },
		y:    func(n, k, m int) int { return n * m },
		c:    func(n, k, m int) int { return k * m },
		layout: func(y []float64, n, k, m int) gemmLayout {
			return gemmLayout{y, k, m, n, 1, k, gemmAcc}
		},
		ref: refMMTNAcc,
	},
}

// gemmFill returns n values in ±[0.5, 1.5) with a zeroFrac share of them
// exactly zero.
func gemmFill(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Float64() < zeroFrac {
			continue
		}
		s[i] = 0.5 + rng.Float64()
		if rng.Intn(2) == 0 {
			s[i] = -s[i]
		}
	}
	return s
}

// kernelPath is one kernel family a test can force through useSIMD and
// useAVX512; ok reports whether this CPU runs it, and lack why not.
type kernelPath struct {
	name         string
	simd, avx512 bool
	ok           bool
	lack         string
}

// gemmPaths are the GEMM's three kernel families: gemm4x16 taking every
// full group of four rows, gemm4x8 taking every full 4×8 tile, and gemmGo
// alone.
var gemmPaths = []kernelPath{
	{name: "avx512", simd: true, avx512: true, ok: hasAVX2 && hasAVX512, lack: "no AVX-512F on this CPU"},
	{name: "avx2", simd: true, ok: hasAVX2, lack: "no AVX2 on this CPU"},
	{name: "go", ok: true},
}

// force selects p's kernels until tb ends, or skips tb on a CPU without
// them.
func (p kernelPath) force(tb testing.TB) {
	if !p.ok {
		tb.Skip(p.lack)
	}
	simd, avx512 := useSIMD, useAVX512
	tb.Cleanup(func() { useSIMD, useAVX512 = simd, avx512 })
	useSIMD, useAVX512 = p.simd, p.avx512
}

// onEachPath runs f as one subtest per path, named after it.
func onEachPath(t *testing.T, paths []kernelPath, f func(t *testing.T)) {
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			p.force(t)
			f(t)
		})
	}
}

// gemmSentinel is a NaN with a payload no arithmetic produces, filling C
// where a kernel must neither read nor write.
var gemmSentinel = math.Float64frombits(0x7ff8_0000_dead_beef)

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestGEMMMatchesOracle pins every kernel path to the triple-loop oracle bit
// for bit: hand-picked shapes covering full tiles, every 2×4, 2×3, 2×1, 4×8
// and 4×16 tile edge in each dimension (6 columns end in two 2×1 tiles; 15
// leave a 2×4 and a 2×3 tile after one 4×8; 1–7 and 9–15 columns mod 16 end
// gemm4x16's masked tail in its low and its high eight lanes), rows 1–3 mod
// 4 left to gemmGo, an empty reduction, the vacuum and paper-infer
// workloads' layers, then seeded random shapes; operands with
// 25% exact zeros; under 1, 2 and 3 workers, and through gemmRange over
// uneven row splits whose bounds are mostly not multiples of 4. Each shape
// runs in the layout's adding mode with C non-zero on entry, and in store
// mode with C filled with a NaN sentinel, which must equal the oracle on a
// zeroed C: a kernel that reads C in store mode fails. Together these pin
// that each element's accumulation order is a function of the shape and
// mode alone.
func TestGEMMMatchesOracle(t *testing.T) {
	onEachPath(t, gemmPaths, testGEMMMatchesOracle)
}

func testGEMMMatchesOracle(t *testing.T) {
	defer par.SetMaxWorkers(0)
	shapes := [][3]int{
		{1, 1, 1}, {2, 4, 4}, {3, 3, 3}, {4, 4, 4}, {5, 2, 7}, {7, 5, 9},
		{24, 24, 24}, {3, 24, 5}, {513, 33, 31},
		{4, 0, 8}, {9, 0, 17}, {0, 8, 8},
		{1000, 48, 32}, {1000, 32, 32}, {1000, 32, 4}, {1000, 32, 3}, {1000, 4, 3},
		{2304, 256, 128}, {2304, 128, 128}, {2304, 128, 7}, {2304, 7, 3},
	}
	edges := []int{1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 31}
	for _, n := range edges {
		for _, k := range edges {
			for _, m := range edges {
				shapes = append(shapes, [3]int{n, k, m})
			}
		}
	}
	rng := rand.New(rand.NewSource(517))
	for i := 0; i < 24; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		for _, g := range gemmCases {
			for _, store := range []bool{false, true} {
				x := gemmFill(rng, g.x(n, k, m), 0.25)
				y := gemmFill(rng, g.y(n, k, m), 0.25)
				c0 := gemmFill(rng, g.c(n, k, m), 0)
				want := append([]float64(nil), c0...)
				if store {
					clear(want)
					for i := range c0 {
						c0[i] = gemmSentinel
					}
				}
				g.ref(want, x, y, n, k, m)
				check := func(how string, got []float64) {
					t.Helper()
					if i, ok := sameBits(got, want); !ok {
						t.Errorf("%s %dx%dx%d store=%v %s: C[%d] = %v, oracle %v", g.name, n, k, m, store, how, i, got[i], want[i])
					}
				}
				for _, w := range []int{1, 2, 3} {
					par.SetMaxWorkers(w)
					got := append([]float64(nil), c0...)
					g.kernel(got, x, y, n, k, m, store)
					check(fmt.Sprintf("workers=%d", w), got)
				}
				l := g.layout(y, n, k, m)
				if store {
					l.mode = gemmStore
				}
				got := append([]float64(nil), c0...)
				for s := 0; s < l.rows; {
					e := min(l.rows, s+1+rng.Intn(13))
					gemmRange(got, x, l.b, l.cols, l.red, l.aRow, l.aRed, l.mode, s, e)
					s = e
				}
				check("uneven row split", got)
			}
		}
	}
}

// TestGEMMPropagatesNonFinite pins the kernels' non-finite semantics: a NaN
// or Inf in one operand reaches C even where the matching entry of the other
// operand is exactly zero (0·Inf = NaN), so a blown-up weight or gradient is
// visible on the step it appears instead of being masked by a zero input.
// The shape gives every layout a full 4×8 tile at C[0]. In store mode C
// starts as a NaN sentinel, and its last element, which no poisoned entry
// reaches, must come out finite.
func TestGEMMPropagatesNonFinite(t *testing.T) {
	onEachPath(t, gemmPaths, testGEMMPropagatesNonFinite)
}

func testGEMMPropagatesNonFinite(t *testing.T) {
	const n, k, m = 9, 8, 10
	for _, g := range gemmCases {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for side := 0; side < 2; side++ {
				rng := rand.New(rand.NewSource(517))
				x := gemmFill(rng, g.x(n, k, m), 0)
				y := gemmFill(rng, g.y(n, k, m), 0)
				// Entry 0 of each operand meets entry 0 of the other in C[0]
				// for all three layouts: zero one, poison the other.
				if side == 0 {
					x[0], y[0] = 0, bad
				} else {
					x[0], y[0] = bad, 0
				}
				for _, store := range []bool{false, true} {
					c := make([]float64, g.c(n, k, m))
					if store {
						for i := range c {
							c[i] = gemmSentinel
						}
					}
					g.kernel(c, x, y, n, k, m, store)
					if !math.IsNaN(c[0]) {
						t.Errorf("%s store=%v: %v against an exact zero gave C[0] = %v, want NaN", g.name, store, bad, c[0])
					}
					if last := c[len(c)-1]; math.IsNaN(last) || math.IsInf(last, 0) {
						t.Errorf("%s store=%v: %v at entry 0 reached C's last element: %v", g.name, store, bad, last)
					}
				}
			}
		}
	}
}

// TestGEMMKernelsStayInBlock runs each path's 4-row kernel on blocks of C
// narrower than their row stride, the way gemmRange's AVX2 split hands
// gemm4x8 the columns before gemmGo's: NaN sentinels fill C before the
// block, after it and the gap between each row's last column and the next
// row, and B's gap columns too. Every sentinel must keep its bits and the
// block must match the contract's sum, in every mode; in store mode the
// block starts as sentinels too, which the kernel must not read. Go's
// bounds checks cannot see a store from the assembly, so this is what pins
// gemm4x16's masks.
func TestGEMMKernelsStayInBlock(t *testing.T) {
	onEachPath(t, gemmPaths, testGEMMKernelsStayInBlock)
}

func testGEMMKernelsStayInBlock(t *testing.T) {
	// tile is the kernel the path runs on a full group of four rows, for
	// column counts that are multiples of step.
	tile, step := func(c, a, b []float64, cols, red, ldc, aRow, aRed int, mode gemmMode) {
		gemmGo(c, a, b, 4, cols, red, ldc, aRow, aRed, mode)
	}, 1
	switch {
	case useSIMD && useAVX512:
		tile = gemm4x16
	case useSIMD:
		tile, step = gemm4x8, 8
	}
	sentinel := gemmSentinel
	const pad = 40
	rng := rand.New(rand.NewSource(517))
	for cols := step; cols <= 40; cols += step {
		for _, gap := range []int{0, 1, 7, 9, 16} {
			for _, red := range []int{1, 3} {
				for _, mode := range []gemmMode{gemmAcc, gemmFresh, gemmStore} {
					ldc := cols + gap
					in := func(i int) bool { return i >= pad && i < pad+4*ldc && (i-pad)%ldc < cols }
					c := make([]float64, pad+4*ldc+pad)
					b := make([]float64, red*ldc)
					for i := range c {
						c[i] = sentinel
						if in(i) && mode != gemmStore {
							c[i] = rng.Float64() - 0.5
						}
					}
					for i := range b {
						b[i] = sentinel
						if i%ldc < cols {
							b[i] = rng.Float64() - 0.5
						}
					}
					a := randSlice(rng, 4*red, -1, 1)
					want := append([]float64(nil), c...)
					for r := 0; r < 4; r++ {
						for j := 0; j < cols; j++ {
							cw := &want[pad+r*ldc+j]
							var sum float64
							if mode == gemmAcc {
								sum = *cw
							}
							for l := 0; l < red; l++ {
								sum += float64(a[r*red+l] * b[l*ldc+j])
							}
							if mode == gemmFresh {
								sum = *cw + sum
							}
							*cw = sum
						}
					}
					tile(c[pad:], a, b, cols, red, ldc, red, 1, mode)
					if i, ok := sameBits(c, want); !ok {
						what := "block"
						if !in(i) {
							what = "sentinel"
						}
						t.Fatalf("cols=%d ldc=%d red=%d mode=%d: %s C[%d] = %v, want %v", cols, ldc, red, mode, what, i-pad, c[i], want[i])
					}
				}
			}
		}
	}
}

// TestMMTNAccSplitsNarrowLayers pins the TN GEMM's work estimate: a row of dW
// costs n·m multiply-adds, so the dW of the vacuum model's narrow output
// (32×3) and adapter (32×4) layers at 1000 rows is split across two
// workers rather than run serially.
func TestMMTNAccSplitsNarrowLayers(t *testing.T) {
	defer par.SetMaxWorkers(0)
	par.SetMaxWorkers(2)
	const n, k = 1000, 32
	for _, m := range []int{3, 4} {
		x := make([]float64, n*k)
		g := make([]float64, n*m)
		dw := make([]float64, k*m)
		par.ResetStats()
		gemmCases[2].kernel(dw, x, g, n, k, m, false)
		if st := par.Stats(); st.Regions != 1 || st.Chunks != 2 {
			t.Errorf("dW %dx%d at %d rows: %d regions, %d chunks; want 1 region of 2 chunks", k, m, n, st.Regions, st.Chunks)
		}
	}
}

// TestGEMMRangeZeroAllocs backs the //torq:hotpath annotation on the serial
// range function with a dynamic check, for every layout at a shape with full
// 4×8 tiles and remainders in every dimension.
func TestGEMMRangeZeroAllocs(t *testing.T) {
	onEachPath(t, gemmPaths, testGEMMRangeZeroAllocs)
}

func testGEMMRangeZeroAllocs(t *testing.T) {
	const n, k, m = 9, 10, 11
	for _, g := range gemmCases {
		x := make([]float64, g.x(n, k, m))
		y := make([]float64, g.y(n, k, m))
		c := make([]float64, g.c(n, k, m))
		l := g.layout(y, n, k, m)
		if a := testing.AllocsPerRun(20, func() { gemmRange(c, x, l.b, l.cols, l.red, l.aRow, l.aRed, l.mode, 0, l.rows) }); a != 0 {
			t.Errorf("%s gemmRange: %v allocs/run, want 0", g.name, a)
		}
	}
}

// TestGEMMDispatch pins the run-time kernel choice on linux/amd64: a CPU
// whose /proc/cpuinfo flags list avx2 must select the assembly kernels, one
// that lists avx512f must select gemm4x16 among them, and one that also
// lists fma must report it for the tanh kernel, so a broken CPUID/XGETBV
// check cannot silently fall back to a narrower path.
func TestGEMMDispatch(t *testing.T) {
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
		fields := strings.Fields(flags)
		if slices.Contains(fields, "avx2") && !(hasAVX2 && useSIMD) {
			t.Fatalf("cpuinfo lists avx2 but hasAVX2=%v useSIMD=%v", hasAVX2, useSIMD)
		}
		if slices.Contains(fields, "avx512f") && !(hasAVX512 && useAVX512) {
			t.Fatalf("cpuinfo lists avx512f but hasAVX512=%v useAVX512=%v", hasAVX512, useAVX512)
		}
		if slices.Contains(fields, "avx2") && slices.Contains(fields, "fma") && !hasFMA {
			t.Fatal("cpuinfo lists avx2 and fma but hasFMA=false")
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

// TestGEMMAssemblyHasNoFMA pins the rounding contract of the assembly
// kernels: every term is a separately rounded multiply and add, as in the
// scalar Go code, so a fused multiply-add anywhere in matmul_amd64.s would
// break bit-identity with the pure-Go path and across architectures.
func TestGEMMAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("matmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if fma := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)\w*`).FindAll(src, -1); len(fma) > 0 {
		t.Errorf("matmul_amd64.s uses fused multiply-add: %s", fma)
	}
	for _, op := range []string{"VMULPD", "VADDPD"} {
		if !strings.Contains(string(src), op) {
			t.Errorf("matmul_amd64.s has no %s: is this still the GEMM kernel?", op)
		}
	}
}

// gemmBenchShapes are the vacuum workload's layer GEMMs at its 1000-point
// grid, n×k×m: RFF→hidden, hidden→hidden, hidden→adapter, hidden→output;
// then the paper-infer workload's 2304-point snapshot through its 256→128
// and 128→128 hidden layers, its 128→7 adapter and its 7→3 output layer.
var gemmBenchShapes = [][3]int{
	{1000, 48, 32}, {1000, 32, 32}, {1000, 32, 4}, {1000, 32, 3},
	{2304, 256, 128}, {2304, 128, 128}, {2304, 128, 7}, {2304, 7, 3},
}

// benchGEMM times g at every shape on each kernel path side by side, so the
// kernel ratios are same-session numbers.
func benchGEMM(b *testing.B, g gemmCase) {
	for _, s := range gemmBenchShapes {
		n, k, m := s[0], s[1], s[2]
		for _, p := range gemmPaths {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", n, k, m, p.name), func(b *testing.B) {
				p.force(b)
				rng := rand.New(rand.NewSource(517))
				x := randSlice(rng, g.x(n, k, m), -1, 1)
				y := randSlice(rng, g.y(n, k, m), -1, 1)
				c := make([]float64, g.c(n, k, m))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.kernel(c, x, y, n, k, m, false)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*k*m), "ns/MAC")
			})
		}
	}
}

// BenchmarkGEMMNN times the forward C += X·W.
func BenchmarkGEMMNN(b *testing.B) { benchGEMM(b, gemmCases[0]) }

// BenchmarkGEMMNT times the input gradient dX += dC·Wᵀ, including the
// packing of Wᵀ.
func BenchmarkGEMMNT(b *testing.B) { benchGEMM(b, gemmCases[1]) }

// BenchmarkGEMMTN times the weight gradient dW += Xᵀ·dC.
func BenchmarkGEMMTN(b *testing.B) { benchGEMM(b, gemmCases[2]) }
