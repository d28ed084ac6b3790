package core

import "math/bits"

// RowMask hides rows from a search's answer, one bit per row: a masked row
// is still read and walked through (a graph walk steers by it), but never
// enters the result queue. A mutable shard masks the base rows it has
// deleted or shadowed with a fresher version, so its queue holds k live
// rows and prunes against the k-th live distance. A nil mask hides
// nothing.
type RowMask []uint64

// NewRowMask returns a mask over n rows that hides none of them.
func NewRowMask(n int) RowMask { return make(RowMask, (n+63)/64) }

// Set hides row i.
func (m RowMask) Set(i int) { m[i>>6] |= 1 << (i & 63) }

// Has reports whether row i is hidden.
func (m RowMask) Has(i int) bool { return m != nil && m[i>>6]&(1<<(i&63)) != 0 }

// Count returns the number of hidden rows.
func (m RowMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}
