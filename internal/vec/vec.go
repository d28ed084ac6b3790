// Package vec provides the float32 vector kernels used throughout the
// library: dot products, squared Euclidean distances, partial (prefix /
// suffix) distances for incremental distance correction, norms and basic
// slice arithmetic.
//
// All distance-like quantities in this code base are squared Euclidean
// distances, matching the paper (squaring preserves the ordering of
// distances, §II-A). The hot kernels (Dot, L2Sq and the fused flat-matrix
// variants built on them) go through one-time runtime dispatch: on amd64
// with AVX2+FMA and on arm64 (NEON) they run hand-written assembly, and
// everywhere else — or under the `noasm` build tag, the RESINFER_NOSIMD
// environment variable, or ForceGeneric — they run the portable generic
// kernels. The generic kernels accumulate in float32 with 8-way unrolling
// (eight independent accumulators keep the FP units busy without SIMD,
// mirroring the scalar setting the paper evaluates under); the SIMD
// kernels use wider lanes and fused multiply-add, so their sums can differ
// from the generic ones by normal floating-point reassociation error.
// Reductions that feed statistics or training use the float64 variants to
// avoid cancellation. The float64 row kernels training sweeps its matrices
// with (float64.go) are dispatched the same way but never reassociate:
// both paths give the scalar loop's bits.
package vec

import "math"

// Dot returns the inner product <a, b>. The slices must have equal length.
func Dot(a, b []float32) float32 {
	if len(a) > 0 {
		_ = b[len(a)-1] // bounds: b must cover a before the kernel runs unchecked
	}
	return dotImpl(a, b)
}

// DotGeneric is the portable scalar Dot kernel: 8-way unrolled, no SIMD.
// It is the deterministic reference path the dispatched kernels are tested
// against, and what Dot runs after ForceGeneric.
func DotGeneric(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	n := len(a)
	i := 0
	for ; i+8 <= n; i += 8 {
		aa, bb := a[i:i+8], b[i:i+8]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// Dot64 returns the inner product accumulated in float64.
func Dot64(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// L2Sq returns the squared Euclidean distance between a and b.
func L2Sq(a, b []float32) float32 {
	if len(a) > 0 {
		_ = b[len(a)-1] // bounds: b must cover a before the kernel runs unchecked
	}
	return l2sqImpl(a, b)
}

// L2SqGeneric is the portable scalar L2Sq kernel: 8-way unrolled, no SIMD.
// It is the deterministic reference path the dispatched kernels are tested
// against, and what L2Sq runs after ForceGeneric.
func L2SqGeneric(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	n := len(a)
	i := 0
	for ; i+8 <= n; i += 8 {
		aa, bb := a[i:i+8], b[i:i+8]
		d0 := aa[0] - bb[0]
		d1 := aa[1] - bb[1]
		d2 := aa[2] - bb[2]
		d3 := aa[3] - bb[3]
		d4 := aa[4] - bb[4]
		d5 := aa[5] - bb[5]
		d6 := aa[6] - bb[6]
		d7 := aa[7] - bb[7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		s4 += d4 * d4
		s5 += d5 * d5
		s6 += d6 * d6
		s7 += d7 * d7
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// L2Sq64 returns the squared Euclidean distance accumulated in float64.
func L2Sq64(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// NormSq returns the squared Euclidean norm of a.
func NormSq(a []float32) float32 {
	var s0, s1 float32
	n := len(a)
	i := 0
	for ; i+2 <= n; i += 2 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
	}
	if i < n {
		s0 += a[i] * a[i]
	}
	return s0 + s1
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(NormSq(a))))
}

// Scale multiplies every element of a by c in place.
func Scale(a []float32, c float32) {
	for i := range a {
		a[i] *= c
	}
}

// Axpy computes y += alpha*x in place. The slices must have equal length.
func Axpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Add returns a+b as a new slice.
func Add(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a new slice.
func Sub(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SubInto writes a-b into dst, which must have the same length.
func SubInto(dst, a, b []float32) {
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Mean returns the arithmetic mean of a (0 for empty input), accumulated in
// float64.
func Mean(a []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	var s float64
	for _, v := range a {
		s += float64(v)
	}
	return s / float64(len(a))
}

// Equal reports whether a and b have identical lengths and elements.
func Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
