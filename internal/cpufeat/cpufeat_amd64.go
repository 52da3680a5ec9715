package cpufeat

// detect returns AVX2, FMA and AVX512. All three need the OS to save YMM
// state (OSXSAVE, AVX, and XCR0's SSE and AVX bits); AVX512 also needs it to
// save the opmask and ZMM state (XCR0 bits 5–7).
func detect() (avx2, fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false, false
	}
	// XCR0 bits 1 and 2: the OS enables SSE and AVX (YMM) state; bits 5–7:
	// opmask, the upper halves of ZMM0–15, and ZMM16–31.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false, false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit, avx512F = 1 << 5, 1 << 16
	return ebx7&avx2Bit != 0, ecx1&fma3 != 0, ebx7&avx512F != 0 && xcr0&0xe0 == 0xe0
}

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register XCR0.
func xgetbv() (eax, edx uint32)
