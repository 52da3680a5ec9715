//go:build !amd64

package cpufeat

func detect() (avx2, fma bool) { return false, false }
