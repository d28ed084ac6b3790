package par

import (
	"sync/atomic"
	"testing"
)

// TestRangeCoversEveryIndexOnce checks the chunking at sizes around the
// worker count, including n < workers and n == 0.
func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100} {
		for _, workers := range []int{0, 1, 2, 3, 8, 200} {
			hits := make([]atomic.Int32, n)
			Range(n, workers, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}
