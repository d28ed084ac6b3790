package vec

// The incremental distance-correction algorithms (ADSampling's hypothesis
// test, the paper's Incremental-DDCres, and the per-level classifiers of
// DDCpca) all consume distances dimension-range by dimension-range. The
// helpers here compute those partial quantities without re-scanning the
// prefix that has already been consumed.

// DotRange returns the inner product of a[lo:hi] and b[lo:hi].
func DotRange(a, b []float32, lo, hi int) float32 {
	return Dot(a[lo:hi], b[lo:hi])
}

// L2SqRange returns the squared Euclidean distance restricted to the
// coordinate range [lo, hi).
func L2SqRange(a, b []float32, lo, hi int) float32 {
	return L2Sq(a[lo:hi], b[lo:hi])
}

// SuffixNormSqInto writes into out, which must have length len(a)+1, the
// squared norm of the suffix a[d:] for each cut position d in [0, len(a)],
// and returns out. out[len(a)] is 0. The result is computed in a single
// backwards pass with float64 accumulation so that successive entries are
// consistent (out[d] = out[d+1] + a[d]^2).
func SuffixNormSqInto(out []float64, a []float32) []float64 {
	out[len(a)] = 0
	var s float64
	for i := len(a) - 1; i >= 0; i-- {
		s += float64(a[i]) * float64(a[i])
		out[i] = s
	}
	return out
}

// SuffixWeightedSq returns, for each cut position d, the suffix sum
// Σ_{i≥d} (a[i]·w[i])². This is the σ² suffix table of DDCres: with
// a = query (rotated) and w = per-dimension residual standard deviations,
// entry d equals Σ_{i≥d} q_i² σ_i², so the error bound at projection depth
// d is m·sqrt(4·out[d]).
func SuffixWeightedSq(a, w []float32) []float64 {
	return SuffixWeightedSqInto(make([]float64, len(a)+1), a, w)
}

// SuffixWeightedSqInto is SuffixWeightedSq writing into out, which must
// have length len(a)+1. It returns out.
func SuffixWeightedSqInto(out []float64, a, w []float32) []float64 {
	out[len(a)] = 0
	var s float64
	for i := len(a) - 1; i >= 0; i-- {
		t := float64(a[i]) * float64(w[i])
		s += t * t
		out[i] = s
	}
	return out
}

// The flat-matrix kernels below read a row directly out of a row-major
// buffer (base = row*dim) without materializing a per-row slice header,
// fusing the row addressing into the distance computation. They are
// bit-identical to calling the slice kernels on the equivalent row views:
// same kernel, same accumulation order — including whichever SIMD kernel
// runtime dispatch selected, so the per-row compare loops of every DCO
// inherit the assembly paths without modification.

// L2SqFlat returns the squared Euclidean distance between q and the row
// starting at offset base in the flat row-major buffer.
func L2SqFlat(q, flat []float32, base int) float32 {
	return L2Sq(q, flat[base:base+len(q)])
}

// DotFlat returns the inner product of q and the row starting at offset
// base in the flat row-major buffer.
func DotFlat(q, flat []float32, base int) float32 {
	return Dot(q, flat[base:base+len(q)])
}

// L2SqRangeFlat returns the squared Euclidean distance restricted to
// coordinates [lo, hi) of q and the row starting at offset base.
func L2SqRangeFlat(q, flat []float32, base, lo, hi int) float32 {
	return L2Sq(q[lo:hi], flat[base+lo:base+hi])
}

// DotRangeFlat returns the inner product restricted to coordinates
// [lo, hi) of q and the row starting at offset base.
func DotRangeFlat(q, flat []float32, base, lo, hi int) float32 {
	return Dot(q[lo:hi], flat[base+lo:base+hi])
}

// MatVec writes rot·x into dst, where rot is a row-major len(dst) x dim
// matrix and len(x) == dim: the O(D²) rotation every comparator applies to
// a query (§VI-A) and, row by row, to the data at training time. Each
// output is Dot(rot row, x) through the dispatched kernel — bit-identical
// to calling Dot per row — so it is SIMD wherever Dot is. dst must not
// alias x. It panics when the shapes disagree, which only a bug can cause;
// callers validate outside input first.
func MatVec(dst, rot []float32, dim int, x []float32) {
	if len(x) != dim || len(rot) != len(dst)*dim {
		panic("vec: MatVec shape mismatch")
	}
	for i := range dst {
		dst[i] = dotImpl(rot[i*dim:(i+1)*dim], x)
	}
}
