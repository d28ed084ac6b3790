package vec

import "os"

// The hot kernels are selected once, before main runs: the arch-specific
// init in dispatch_amd64.go / dispatch_arm64.go probes the CPU and, when
// the required features are present, repoints the impl variables at the
// assembly kernels. Everything in the package (including the fused
// flat-matrix variants in partial.go) calls through these variables, so
// every caller of the vec API picks up SIMD without modification.
//
// The variables are written only during init and by ForceGeneric; they are
// not synchronized, so ForceGeneric must not race with in-flight searches
// (call it from TestMain or before serving starts).
var (
	dotImpl        = DotGeneric
	l2sqImpl       = L2SqGeneric
	axpyRows64Impl = axpyRows64Generic
	rot64Impl      = rot64Generic
	level          = "generic"
)

// Level reports which kernel implementation is active: "avx2+fma", "neon"
// or "generic".
func Level() string { return level }

// ForceGeneric routes Dot and L2Sq (and everything built on them), and the
// float64 row kernels, to the portable scalar kernels, regardless of CPU
// features. Golden tests that need the deterministic 8-way scalar
// accumulation order call this; the RESINFER_NOSIMD=1 environment variable
// has the same effect without a code change.
func ForceGeneric() {
	dotImpl, l2sqImpl = DotGeneric, L2SqGeneric
	axpyRows64Impl, rot64Impl = axpyRows64Generic, rot64Generic
	level = "generic"
}

// noSIMDEnv reports whether the RESINFER_NOSIMD environment variable asks
// for the scalar fallback ("" and "0" mean SIMD stays on).
func noSIMDEnv() bool {
	v := os.Getenv("RESINFER_NOSIMD")
	return v != "" && v != "0"
}
