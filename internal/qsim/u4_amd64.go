package qsim

// applyU4AVX2 applies the column-packed 4×4 unitary pk (packU4) to every
// 4-amplitude group of re/im, len(re)/4 groups whose base indices are the
// indices with bits sa and sb clear, in ascending order. The caller
// guarantees len(im) = len(re), that len(re) is a whole number of samples
// and that sa < sb are powers of two below the sample dimension.
//
//go:noescape
func applyU4AVX2(re, im []float64, pk *[32]float64, sa, sb int)

// revU4AVX2 is the opU4 adjoint over the same groups as applyU4AVX2 for one
// (ψ, λ) channel pair: it applies the packed U† pk to both states in place
// and adds each group's outer product ψ_pre_c·conj(λ_post_r) to k (32
// floats, interleaved re/im, row-major), under the same caller guarantees.
//
//go:noescape
func revU4AVX2(pr, pim, lr, lim []float64, pk, k *[32]float64, sa, sb int)
