package ad

// tanh4 writes y[i] = math.Tanh(x[i]) for the first len(x)&^3 elements,
// four lanes at a time. Each lane runs the operations math.Tanh runs for
// its branch: ±1 above MAXLOG/2; 1 − 2/(exp(2|x|)+1) with x's sign from
// 0.625 on, where exp(2|x|) repeats archExp's FMA path (exp_amd64.s)
// operation for operation; the rational form x + x·s·P(s)/Q(s), s = x²,
// below; and x itself for ±0. Each lane picks its dividend and divisor
// before one division. The caller guarantees len(y) ≥ len(x)&^3, AVX2 and
// FMA.
//
//go:noescape
func tanh4(y, x []float64)
