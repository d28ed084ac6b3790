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

// SuffixWeightedSq returns, for each cut position d, the suffix sum
// Σ_{i≥d} (a[i]·w[i])². This is the σ² suffix table of DDCres: with
// a = query (rotated) and w = per-dimension residual standard deviations,
// entry d equals Σ_{i≥d} q_i² σ_i², so the error bound at projection depth
// d is m·sqrt(4·out[d]).
func SuffixWeightedSq(a, w []float32) []float64 {
	out := make([]float64, len(a)+1)
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

// PruneRows runs round 0 of DDCres's incremental test (Algorithm 2), or
// exact search's prefix bound, over a block of rows. For each ids[i] in
// order it takes c = 2·Dot(q, row id of pre), pre being a row-major table
// of len(q)-float rows, and keeps the id unless
// (norms[id] + qNorm) − c − bound·fac[id] > tau; a NaN keeps it, as Go's >
// does. A nil fac is a factor of 1 with no multiply: the test is then
// (norms[id] + qNorm) − c − bound, bit for bit. The kept ids and their c
// land in keep and c2 at matching positions, and it returns how many it
// kept. Every c has Dot's bits. Row id's next lines, what its next round
// reads, start at next[id·stride:]. On amd64, at len(q) 32 and 64
// (ddc-res's default DeltaD and exact's prefix), a call's whole groups of 8
// ids go to one assembly kernel, which holds q in registers, reduces 8
// inner products together, tests them in one vector pass, packs the
// survivors through a table into one 8-wide store at keep[n] and c2[n],
// and prefetches two cache lines at next[id·stride:] for each kept id. The
// 0–7 ids left over, every id at other widths, and every id elsewhere go
// through one Go loop over Dot with no prefetch. Either may overwrite keep
// and c2 from the returned count up to len(ids), never past it. It checks
// every id against norms, fac, pre and next, and the room in keep and c2,
// before the kernel reads anything, and panics on a failure, which only a
// bug can cause.
//
//resinfer:noalloc
func PruneRows(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, next []float32, stride int, keep []int32, c2 []float32) int {
	if len(keep) < len(ids) || len(c2) < len(ids) {
		panic("vec: PruneRows output shorter than ids")
	}
	var hi uint32 // the largest id; a negative one wraps past MaxInt32
	for _, id := range ids {
		hi = max(hi, uint32(id))
	}
	if n := uint64(hi) + 1; len(ids) > 0 && (int32(hi) < 0 || n > uint64(len(norms)) || fac != nil && n > uint64(len(fac)) || n*uint64(len(q)) > uint64(len(pre)) || uint64(hi)*uint64(stride) >= uint64(len(next))) {
		panic("vec: PruneRows row out of range")
	}
	return pruneRowsImpl(q, pre, ids, norms, fac, qNorm, bound, tau, next, stride, keep, c2)
}

// pruneRowsLoop is PruneRows as a loop over the dispatched Dot kernel,
// without the prefetch. The conversion rounds bound·fac[id] on its own, as
// the assembly does, where a compiler could otherwise fuse it into the
// subtraction.
func pruneRowsLoop(q, pre []float32, ids []int32, norms, fac []float32, qNorm, bound, tau float32, _ []float32, _ int, keep []int32, c2 []float32) int {
	d, n := len(q), 0
	for _, id := range ids {
		c := 2 * dotImpl(q, pre[int(id)*d:int(id+1)*d])
		keep[n], c2[n] = id, c
		b := bound
		if fac != nil {
			b = float32(bound * fac[id])
		}
		if !((norms[id]+qNorm)-c-b > tau) {
			n++
		}
	}
	return n
}
