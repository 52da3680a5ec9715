package ad

import (
	"math"

	"repro/internal/cpufeat"
)

// hasFMA reports whether the CPU has the fused multiply-add instructions
// Go's amd64 math.Exp uses; it is false off amd64.
var hasFMA = cpufeat.FMA

// tanhSlice writes y[i] = math.Tanh(x[i]) for every i, bit for bit. Where
// the assembly kernel may run (useSIMD and FMA), tanh4 takes the whole
// groups of four and math.Tanh the rest. Go's math.Exp fuses exactly when
// the CPU has AVX and FMA, so tanh4, which fuses in the same places, runs
// only there.
//
//torq:hotpath
func tanhSlice(y, x []float64) {
	y = y[:len(x)]
	n := 0
	if useSIMD && hasFMA {
		n = len(x) &^ 3
		tanh4(y[:n], x[:n])
	}
	for i := n; i < len(x); i++ {
		y[i] = math.Tanh(x[i])
	}
}
