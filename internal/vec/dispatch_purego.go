//go:build (!amd64 && !arm64) || noasm

package vec

// Architectures without assembly kernels (and any build with the `noasm`
// tag) keep the package-default generic dispatch: dotImpl/l2sqImpl stay
// on DotGeneric/L2SqGeneric, the float64 row kernels on their Go loops,
// and Level() reports "generic".
