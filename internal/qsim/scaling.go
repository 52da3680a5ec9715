package qsim

import "math"

// ScalingKind selects one of the paper's five input-angle encodings
// (eqs. 29a–e), mapping tanh-bounded activations a ∈ [−1, 1] to embedding
// rotation angles.
type ScalingKind int

const (
	ScaleNone ScalingKind = iota // a            ∈ [−1, 1]
	ScalePi                      // a·π          ∈ [−π, π]
	ScaleBias                    // (a+1)/2·π    ∈ [0, π]
	ScaleAsin                    // asin(a)+π/2  ∈ [0, π]
	ScaleAcos                    // acos(a)      ∈ [0, π]
)

// AllScalings lists the ablation order used in Figs. 6–9.
var AllScalings = []ScalingKind{ScaleNone, ScalePi, ScaleAsin, ScaleAcos, ScaleBias}

// scalingFlags holds each scaling's -scale flag value, indexed by kind.
var scalingFlags = [...]string{ScaleNone: "none", ScalePi: "pi", ScaleBias: "bias", ScaleAsin: "asin", ScaleAcos: "acos"}

func (s ScalingKind) String() string {
	if s < 0 || int(s) >= len(scalingFlags) {
		return "unknown"
	}
	return "scale_" + scalingFlags[s]
}

// Apply maps one activation to an angle.
func (s ScalingKind) Apply(a float64) float64 {
	switch s {
	case ScaleNone:
		return a
	case ScalePi:
		return a * math.Pi
	case ScaleBias:
		return (a + 1) / 2 * math.Pi
	case ScaleAsin:
		return math.Asin(clampUnit(a)) + math.Pi/2
	case ScaleAcos:
		return math.Acos(clampUnit(a))
	}
	panic("qsim: unknown scaling")
}

func clampUnit(a float64) float64 {
	if a > 1 {
		return 1
	}
	if a < -1 {
		return -1
	}
	return a
}

// InitStrategy selects the quantum-parameter initialization of the §5.2
// black-hole study (Fig. 12).
type InitStrategy int

const (
	InitRegular InitStrategy = iota // uniform on [0, 2π] — the paper's default
	InitZeros
	InitPi
	InitHalfPi
)

func (s InitStrategy) String() string {
	switch s {
	case InitRegular:
		return "init_reg"
	case InitZeros:
		return "init_zeros"
	case InitPi:
		return "init_pi"
	case InitHalfPi:
		return "init_pi/2"
	}
	return "unknown"
}

// Fill writes initial ansatz parameters according to the strategy. rnd must
// produce uniform [0,1) variates for InitRegular; it may be nil otherwise.
func (s InitStrategy) Fill(theta []float64, uniform func() float64) {
	switch s {
	case InitRegular:
		for i := range theta {
			theta[i] = uniform() * 2 * math.Pi
		}
	case InitZeros:
		for i := range theta {
			theta[i] = 0
		}
	case InitPi:
		for i := range theta {
			theta[i] = math.Pi
		}
	case InitHalfPi:
		for i := range theta {
			theta[i] = math.Pi / 2
		}
	}
}
