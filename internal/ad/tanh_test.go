package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// halfMaxLog is tanh.go's 0.5*MAXLOG, the bound above which tanh is ±1.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

// tanhCorpus returns tanhSlice's inputs: hand-picked cases at the edges of
// math.Tanh's branches and of the float64 format, each with both signs,
// then seeded draws up to n values, a third each from a normal
// distribution of varied scale, a log-uniform spread over the whole
// exponent range, and raw bit patterns (NaNs and infinities included).
func tanhCorpus(n int) []float64 {
	bits := math.Float64frombits
	picked := []float64{
		0, 1, 20, 700, 0.5, 22, 19.1,
		0.625, math.Nextafter(0.625, 0), math.Nextafter(0.625, 1),
		halfMaxLog, math.Nextafter(halfMaxLog, 0), math.Nextafter(halfMaxLog, 100),
		math.Inf(1),
		bits(0x7ff8000000000000), bits(0x7ff8000000000001), bits(0x7ff0000000000001),
		bits(0x7ff4000000000000), bits(0x7fffffffffffffff), bits(0x7ff8dead0000beef),
		math.SmallestNonzeroFloat64, 1e-310, bits(0x000fffffffffffff), 0x1p-1022,
		0x1p-27, 0x1p-28, 1e-8, math.MaxFloat64,
	}
	xs := make([]float64, 0, n)
	for _, v := range picked {
		xs = append(xs, v, math.Float64frombits(math.Float64bits(v)^1<<63))
	}
	r := rand.New(rand.NewSource(517))
	for len(xs) < n {
		switch len(xs) % 3 {
		case 0:
			xs = append(xs, r.NormFloat64()*[]float64{0.3, 1, 3, 30}[r.Intn(4)])
		case 1:
			xs = append(xs, math.Copysign(math.Ldexp(1+r.Float64(), r.Intn(2098)-1074), r.Float64()-0.5))
		default:
			xs = append(xs, math.Float64frombits(r.Uint64()))
		}
	}
	return xs
}

// tanhPaths are tanhSlice's two kernel paths: tanh4 on every whole group of
// four, and math.Tanh alone.
var tanhPaths = []kernelPath{
	{name: "simd", simd: true, ok: hasAVX2 && hasFMA, lack: "no AVX2 and FMA on this CPU"},
	{name: "go", ok: true},
}

// TestTanhMatchesMathTanh pins tanhSlice to math.Tanh bit for bit, NaN
// payloads and signed zeros included, on over a million inputs; then on
// every length 0–9 at every offset 0–3 into the corpus, so each tail after
// the last group of four runs, and checks that nothing past the slice is
// written. It runs with the assembly kernel on (where the CPU has AVX2 and
// FMA) and with useSIMD cleared.
func TestTanhMatchesMathTanh(t *testing.T) {
	xs := tanhCorpus(1_000_003)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = math.Tanh(x)
	}
	onEachPath(t, tanhPaths, func(t *testing.T) {
		check := func(what string, x, got, want []float64) {
			t.Helper()
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s: tanh(%v) [%#016x] = %v [%#016x], math.Tanh gives %v [%#016x]", what,
					x[i], math.Float64bits(x[i]), got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		got := make([]float64, len(xs))
		tanhSlice(got, xs)
		check("corpus", xs, got, want)
		const guard = 12345.0
		for off := 0; off < 4; off++ {
			for n := 0; n <= 9; n++ {
				y := make([]float64, off+n+1)
				y[off+n] = guard
				tanhSlice(y[off:off+n], xs[off:off+n])
				check(fmt.Sprintf("offset %d, length %d", off, n), xs[off:off+n], y[off:off+n], want[off:off+n])
				if y[off+n] != guard {
					t.Fatalf("offset %d, length %d: element past the slice overwritten", off, n)
				}
			}
		}
	})
}

// BenchmarkTanh times tanhSlice over one paper-width hidden layer of a
// 2304-point snapshot, on the assembly ("simd") and math.Tanh ("go") paths
// side by side, in ns/element.
func BenchmarkTanh(b *testing.B) {
	const n = 2304 * 128
	r := rand.New(rand.NewSource(517))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64() * 2
	}
	y := make([]float64, n)
	for _, p := range tanhPaths {
		b.Run(fmt.Sprintf("%dx128/%s", n/128, p.name), func(b *testing.B) {
			p.force(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tanhSlice(y, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
