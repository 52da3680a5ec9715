package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// The reference kernels are the plain triple loops the tiled kernels
// replaced, kept serial and verbatim as the bit-identity oracle. Their
// av == 0 skips are part of the original semantics: on finite inputs a
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
				ci[j] += av * bv
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
				sum += av * bj[l]
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
				cl[j] += av * bv
			}
		}
	}
}

// gemmCase describes one GEMM of a dense layer X(n×k)·W(k×m) in the layer's
// own n×k×m terms: the operand lengths, and the kernel, its serial range
// function and its oracle with the arguments the tape passes them.
type gemmCase struct {
	name       string
	x, y, c    func(n, k, m int) int // lengths of the two operands and of C
	rows       func(n, k, m int) int // rows of C the range function splits
	kernel     func(c, x, y []float64, n, k, m int)
	kernelRows func(c, x, y []float64, n, k, m, s, e int)
	ref        func(c, x, y []float64, n, k, m int)
}

var gemmCases = []gemmCase{
	{
		name: "NN", // C(n×m) += X·W, the forward
		x:    func(n, k, m int) int { return n * k },
		y:    func(n, k, m int) int { return k * m },
		c:    func(n, k, m int) int { return n * m },
		rows: func(n, k, m int) int { return n },
		kernel: func(c, x, y []float64, n, k, m int) {
			mmAcc(c, x, y, n, k, m)
		},
		kernelRows: func(c, x, y []float64, n, k, m, s, e int) {
			mmAccRange(c, x, y, k, m, s, e)
		},
		ref: refMMAcc,
	},
	{
		name: "NT", // dX(n×k) += dC(n×m)·Wᵀ
		x:    func(n, k, m int) int { return n * m },
		y:    func(n, k, m int) int { return k * m },
		c:    func(n, k, m int) int { return n * k },
		rows: func(n, k, m int) int { return n },
		kernel: func(c, x, y []float64, n, k, m int) {
			mmNTAcc(c, x, y, n, m, k)
		},
		kernelRows: func(c, x, y []float64, n, k, m, s, e int) {
			mmNTAccRange(c, x, y, m, k, s, e)
		},
		ref: func(c, x, y []float64, n, k, m int) { refMMNTAcc(c, x, y, n, m, k) },
	},
	{
		name: "TN", // dW(k×m) += Xᵀ·dC(n×m)
		x:    func(n, k, m int) int { return n * k },
		y:    func(n, k, m int) int { return n * m },
		c:    func(n, k, m int) int { return k * m },
		rows: func(n, k, m int) int { return k },
		kernel: func(c, x, y []float64, n, k, m int) {
			mmTNAcc(c, x, y, n, k, m)
		},
		kernelRows: func(c, x, y []float64, n, k, m, s, e int) {
			mmTNAccRange(c, x, y, n, k, m, s, e)
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

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestGEMMMatchesOracle pins the tiled kernels to the triple-loop oracle bit
// for bit: hand-picked shapes covering full tiles, every row and column
// remainder and the vacuum workload's layers, then seeded random shapes;
// operands with 25% exact zeros and C non-zero on entry; under 1, 2 and 3
// workers, and through the range functions over uneven row splits. Together
// these pin that each element's accumulation order is a function of the
// shape alone.
func TestGEMMMatchesOracle(t *testing.T) {
	defer par.SetMaxWorkers(0)
	shapes := [][3]int{
		{1, 1, 1}, {2, 4, 4}, {3, 3, 3}, {4, 4, 4}, {5, 2, 7}, {7, 5, 9},
		{24, 24, 24}, {3, 24, 5}, {513, 33, 31},
		{1000, 48, 32}, {1000, 32, 32}, {1000, 32, 4}, {1000, 32, 3}, {1000, 4, 3},
	}
	rng := rand.New(rand.NewSource(517))
	for i := 0; i < 24; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		for _, g := range gemmCases {
			x := gemmFill(rng, g.x(n, k, m), 0.25)
			y := gemmFill(rng, g.y(n, k, m), 0.25)
			c0 := gemmFill(rng, g.c(n, k, m), 0)
			want := append([]float64(nil), c0...)
			g.ref(want, x, y, n, k, m)
			check := func(how string, got []float64) {
				t.Helper()
				if i, ok := sameBits(got, want); !ok {
					t.Errorf("%s %dx%dx%d %s: C[%d] = %v, oracle %v", g.name, n, k, m, how, i, got[i], want[i])
				}
			}
			for _, w := range []int{1, 2, 3} {
				par.SetMaxWorkers(w)
				got := append([]float64(nil), c0...)
				g.kernel(got, x, y, n, k, m)
				check(fmt.Sprintf("workers=%d", w), got)
			}
			rows := g.rows(n, k, m)
			got := append([]float64(nil), c0...)
			for s := 0; s < rows; {
				e := min(rows, s+1+rng.Intn(7))
				g.kernelRows(got, x, y, n, k, m, s, e)
				s = e
			}
			check("uneven row split", got)
		}
	}
}

// TestGEMMPropagatesNonFinite pins the kernels' non-finite semantics: a NaN
// or Inf in one operand reaches C even where the matching entry of the other
// operand is exactly zero (0·Inf = NaN), so a blown-up weight or gradient is
// visible on the step it appears instead of being masked by a zero input.
func TestGEMMPropagatesNonFinite(t *testing.T) {
	const n, k, m = 5, 3, 6
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
				c := make([]float64, g.c(n, k, m))
				g.kernel(c, x, y, n, k, m)
				if !math.IsNaN(c[0]) {
					t.Errorf("%s: %v against an exact zero gave C[0] = %v, want NaN", g.name, bad, c[0])
				}
			}
		}
	}
}

// TestMMTNAccSplitsNarrowLayers pins mmTNAcc's work estimate: a row of dW
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
		mmTNAcc(dw, x, g, n, k, m)
		if st := par.Stats(); st.Regions != 1 || st.Chunks != 2 {
			t.Errorf("dW %dx%d at %d rows: %d regions, %d chunks; want 1 region of 2 chunks", k, m, n, st.Regions, st.Chunks)
		}
	}
}

// TestGEMMRangeZeroAllocs backs the //torq:hotpath annotation on the serial
// range functions with a dynamic check.
func TestGEMMRangeZeroAllocs(t *testing.T) {
	const n, k, m = 9, 7, 6
	for _, g := range gemmCases {
		x := make([]float64, g.x(n, k, m))
		y := make([]float64, g.y(n, k, m))
		c := make([]float64, g.c(n, k, m))
		rows := g.rows(n, k, m)
		if a := testing.AllocsPerRun(20, func() { g.kernelRows(c, x, y, n, k, m, 0, rows) }); a != 0 {
			t.Errorf("%s range function: %v allocs/run, want 0", g.name, a)
		}
	}
}

// gemmBenchShapes are the vacuum workload's layer GEMMs at its 1000-point
// grid, n×k×m: RFF→hidden, hidden→hidden, hidden→adapter, hidden→output.
var gemmBenchShapes = [][3]int{{1000, 48, 32}, {1000, 32, 32}, {1000, 32, 4}, {1000, 32, 3}}

func benchGEMM(b *testing.B, g gemmCase) {
	for _, s := range gemmBenchShapes {
		n, k, m := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", n, k, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(517))
			x := randSlice(rng, g.x(n, k, m), -1, 1)
			y := randSlice(rng, g.y(n, k, m), -1, 1)
			c := make([]float64, g.c(n, k, m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.kernel(c, x, y, n, k, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*k*m), "ns/MAC")
		})
	}
}

// BenchmarkGEMMNN times the forward C += X·W (mmAcc).
func BenchmarkGEMMNN(b *testing.B) { benchGEMM(b, gemmCases[0]) }

// BenchmarkGEMMNT times the input gradient dX += dC·Wᵀ (mmNTAcc).
func BenchmarkGEMMNT(b *testing.B) { benchGEMM(b, gemmCases[1]) }

// BenchmarkGEMMTN times the weight gradient dW += Xᵀ·dC (mmTNAcc).
func BenchmarkGEMMTN(b *testing.B) { benchGEMM(b, gemmCases[2]) }
