//go:build arm64 && !noasm

package vec

// Advanced SIMD (NEON) is an architectural requirement of AArch64, so no
// feature probe is needed: every arm64 host that can run this binary has
// the instructions the kernels use.

//go:noescape
func dotNEON(a, b []float32) float32

//go:noescape
func l2sqNEON(a, b []float32) float32

func init() {
	dotImpl, l2sqImpl = dotNEON, l2sqNEON
	level = "neon"
}
