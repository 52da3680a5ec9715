// Package cpufeat probes, once at start-up, the CPU features that the
// repository's hand-written assembly kernels need. It holds the only CPUID
// and XGETBV code in the module; the packages with assembly kernels (ad's
// GEMM tiles, qsim's opU4 entangler and embedding kernels) read AVX2 to pick
// between their assembly and pure-Go paths, ad's GEMM also reads AVX512 to
// pick its 8-lane tile over its 4-lane one, and ad's 4-lane tanh kernel
// reads FMA.
//
// The probe is read-only and deterministic for a given machine: it selects
// which kernel family runs, never what it computes, because every assembly
// kernel reproduces its pure-Go oracle bit for bit. The tanh kernel fuses
// exactly where Go's amd64 math.Exp fuses, which it does only when the CPU
// has AVX and FMA; so it runs only where FMA is set, and math.Tanh is its
// oracle there.
package cpufeat

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches, the two conditions the
// AVX2 kernels need. It is always false off amd64.
//
// FMA reports whether the CPU also implements the VEX-encoded fused
// multiply-add instructions (FMA3) under the same operating-system check.
// It is always false off amd64.
//
// AVX512 reports whether the CPU implements AVX-512 Foundation (AVX512F)
// and the operating system also saves the opmask and ZMM registers. It is
// always false off amd64.
var AVX2, FMA, AVX512 = detect()
