package core

import "resinfer/internal/vec"

// PrefixTable is the block prune of every scan that tests a bound on the
// leading coordinates of its rows: ddc-res's round 0 and exact's prefix
// bound. It holds each row's first Width coordinates as one contiguous
// n × Width table, so a block streams one dense table instead of picking a
// prefix out of every row, each row's norm term and, optionally, a per-row
// factor on the query's bound, and it makes the one vec.PruneRows call.
type PrefixTable struct {
	pre   []float32 // n × width, row-major
	norms []float32 // the C1 term per row
	fac   []float32 // the bound's factor per row; nil: 1
	width int
}

// NewPrefixTable wraps pre, an n × width row-major table, the per-row norms
// and factors (nil: a factor of 1). The slices are shared, not copied.
func NewPrefixTable(pre, norms, fac []float32, width int) *PrefixTable {
	return &PrefixTable{pre: pre, norms: norms, fac: fac, width: width}
}

// Pre exposes the table (read-only by convention): row id's prefix is
// Pre()[id·width : (id+1)·width], width being what the table was built
// with.
func (t *PrefixTable) Pre() []float32 { return t.pre }

// Bytes is what the table, the norms and the factors hold.
func (t *PrefixTable) Bytes() int64 { return int64(len(t.pre)+len(t.norms)+len(t.fac)) * 4 }

// Prune keeps of ids, in order, those with
// (norms[id] + qNorm) − 2⟨q, prefix of id⟩ − bound·fac[id] ≤ tau (or NaN),
// writes them and their 2⟨q, prefix⟩ into keep and c2 at matching
// positions, and returns how many it kept (see vec.PruneRows, which also
// prefetches each kept row's next two lines, next[id·stride:]). q is the
// query's prefix, width floats. st counts each id it rules out as a Compare
// that pruned it after reading width coordinates.
//
//resinfer:noalloc
func (t *PrefixTable) Prune(st *Stats, q []float32, ids []int32, qNorm, bound, tau float32, next []float32, stride int, keep []int32, c2 []float32) int {
	n := vec.PruneRows(q[:t.width], t.pre, ids, t.norms, t.fac, qNorm, bound, tau, next, stride, keep, c2)
	out := int64(len(ids) - n)
	st.Comparisons += out
	st.Pruned += out
	st.DimsScanned += out * int64(t.width)
	return n
}
