package qsim

// applyU4AVX2 applies the column-packed 4×4 unitary pk (packCoeffs) to every
// 4-amplitude group of re/im: len(re)/4 groups, group g's base the walk's
// L(g) (base(g+1) = base(g) ^ step[tz(g+1)]), its members base, base^ma,
// base^mb and base^ma^mb. The caller guarantees len(im) = len(re), that
// len(re) is a whole number of samples and that step, ma and mb come from
// a two-qubit groupWalk of the samples' register.
//
//go:noescape
func applyU4AVX2(re, im []float64, pk *[32]float64, ma, mb int, step *[64]int)

// revU4AVX2 is the opU4 adjoint over the same groups as applyU4AVX2 for one
// (ψ, λ) channel pair: it applies the packed U† pk to both states in place
// and adds each group's outer product ψ_pre_c·conj(λ_post_r) to k (32
// floats, interleaved re/im, row-major), in walk order, under the same
// caller guarantees.
//
//go:noescape
func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, ma, mb int, step *[64]int)
