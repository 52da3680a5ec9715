package main

import "math"

// The yardstick is a fixed computation the benchmark owns and times after
// every measured step and every set-up, so that each run carries its own
// reading of how fast the host ran. The bounded timing metrics divide the
// program's time by the yardstick's (see README.md, "Why a yardstick"). It
// never calls the program, so no change to the program can make it faster
// or slower.
//
// It has two parts: a throughput-bound forward and weight-gradient pass of
// a small tanh MLP, and a latency-bound chain of dependent multiply-adds
// that slows less when other tenants contend for the host core. The
// program's workloads slow by different factors in the same spells; with
// the chain at about a ninth of the time, the normalized metrics of all
// five workloads spread least (at most 5.3% over seven runs, against 7.1%
// for the MLP alone and 9.9% with the chain at two fifths).
const (
	yardPoints = 1536    // MLP batch
	yardHidden = 48      // MLP width, two hidden layers
	yardChain  = 400_000 // dependent multiply-adds
)

// yardstickSeconds is the length of one yardstick run, by definition, where
// a time must be reported in seconds: the calibration host runs it in 6–12
// ms.
const yardstickSeconds = 0.010

// yardstick holds the MLP's fixed inputs and weights and reuses its work
// buffers, so a run allocates nothing and triggers no GC work of its own.
type yardstick struct {
	x, target      []float64
	w1, b1, w2, b2 []float64
	w3             []float64
	h1, h2         []float64 // hidden activations, yardPoints × yardHidden
	g2, g3, d2     []float64 // w2 and w3 gradients, back-propagated error
	chain          float64   // the multiply-add chain's value, kept between runs
	sink           float64   // keeps every result live
}

func newYardstick() *yardstick {
	y := &yardstick{
		x: make([]float64, 3*yardPoints), target: make([]float64, yardPoints),
		w1: make([]float64, 3*yardHidden), b1: make([]float64, yardHidden),
		w2: make([]float64, yardHidden*yardHidden), b2: make([]float64, yardHidden),
		w3: make([]float64, yardHidden),
		h1: make([]float64, yardPoints*yardHidden), h2: make([]float64, yardPoints*yardHidden),
		g2: make([]float64, yardHidden*yardHidden), g3: make([]float64, yardHidden),
		d2: make([]float64, yardHidden), chain: 1,
	}
	// A fixed linear congruential sequence in [-1, 1): the same inputs on
	// every run and every build.
	s := uint64(1)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11)/(1<<52) - 1
	}
	for _, v := range [][]float64{y.x, y.target, y.w1, y.b1, y.w2, y.b2, y.w3} {
		for i := range v {
			v[i] = next()
		}
	}
	for i := range y.w2 {
		y.w2[i] /= math.Sqrt(yardHidden)
	}
	return y
}

// run does the yardstick's fixed work once.
func (y *yardstick) run() {
	const n, h = yardPoints, yardHidden
	for p := 0; p < n; p++ {
		x := y.x[3*p : 3*p+3]
		a1 := y.h1[p*h : (p+1)*h]
		for j := range a1 {
			a1[j] = math.Tanh(y.b1[j] + x[0]*y.w1[j] + x[1]*y.w1[h+j] + x[2]*y.w1[2*h+j])
		}
		a2 := y.h2[p*h : (p+1)*h]
		copy(a2, y.b2)
		for k, v := range a1 {
			row := y.w2[k*h : (k+1)*h]
			for j := range a2 {
				a2[j] += v * row[j]
			}
		}
		for j := range a2 {
			a2[j] = math.Tanh(a2[j])
		}
	}
	clear(y.g2)
	clear(y.g3)
	var loss float64
	for p := 0; p < n; p++ {
		a2 := y.h2[p*h : (p+1)*h]
		var out float64
		for j, v := range a2 {
			out += v * y.w3[j]
		}
		e := out - y.target[p]
		loss += e * e
		for j, v := range a2 {
			y.g3[j] += e * v
			y.d2[j] = e * y.w3[j] * (1 - v*v)
		}
		a1 := y.h1[p*h : (p+1)*h]
		for k, v := range a1 {
			row := y.g2[k*h : (k+1)*h]
			for j, d := range y.d2 {
				row[j] += v * d
			}
		}
	}
	// The chain starts from the last run's value, which the compiler cannot
	// know; from a constant it folds the whole loop away. Its fixed point is
	// 1, so the value stays normal.
	c := y.chain
	for i := 0; i < yardChain; i++ {
		c = c*0.9999999 + 1e-7
	}
	y.chain = c
	y.sink += loss + y.g2[0] + y.g3[0]
}
