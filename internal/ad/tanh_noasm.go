//go:build !amd64

package ad

// tanh4 has no implementation off amd64; useSIMD is never set there.
func tanh4(y, x []float64) {
	panic("ad: no SIMD tanh kernel on this architecture")
}
