package ad

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches, the two conditions the
// assembly GEMM micro-kernel needs.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS enables SSE and AVX (YMM) state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register XCR0.
func xgetbv() (eax, edx uint32)

// gemm4x8 computes the 4×cols block of C at c, cols a multiple of 8, as
// 4×8 tiles held in eight YMM accumulators. For each term l in ascending
// order it loads B's row l (stride ldc) across the tile's eight columns,
// broadcasts A's term l of each of the four rows (a[r*aRow+l*aRed]), and
// updates every lane with one VMULPD and one VADDPD, never a fused
// multiply-add. fresh starts the accumulators at zero and adds them to C at
// the end; otherwise they start from C. The caller guarantees red ≥ 1 and
// that every element touched is in range (simdTiles).
//
//go:noescape
func gemm4x8(c, a, b []float64, cols, red, ldc, aRow, aRed int, fresh bool)
