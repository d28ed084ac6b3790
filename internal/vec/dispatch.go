package vec

// The hot kernels are selected once, before main runs: the arch-specific
// init in dispatch_amd64.go / dispatch_arm64.go probes the CPU and, when
// the required features are present, repoints the impl variables at the
// assembly kernels. Everything in the package (including the fused
// flat-matrix variants in partial.go) calls through these variables, so
// every caller of the vec API picks up SIMD without modification.
//
// The variables are written only during init, so they need no
// synchronization. The `noasm` build tag keeps them on the generic kernels.
var (
	dotImpl        = DotGeneric
	l2sqImpl       = L2SqGeneric
	pruneRowsImpl  = pruneRowsLoop
	axpyRows64Impl = axpyRows64Generic
	rot64Impl      = rot64Generic
	level          = "generic"
)

// Level reports which kernel implementation is active: "avx2+fma", "neon"
// or "generic".
func Level() string { return level }
