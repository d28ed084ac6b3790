package resinfer

import (
	"fmt"
	"math"
	"testing"

	"resinfer/internal/dataset"
	"resinfer/internal/vec"
)

// TestComparatorsAgreeWithExactOverFlat is the differential test of the
// rotating comparators: over a Flat index every candidate goes through
// Compare, so whatever differs from the exact scan is the comparator's
// doing — its rotation, its bound, its pruning. At a dimension that is a
// multiple of no SIMD block (33) and at the benchmark's (420), each mode's
// top-10 must reach recall 0.99 against the exact mode's, and every
// neighbour it returns — a candidate it did not prune — must carry a
// distance whose Score is the true one within 1e-3 relative.
func TestComparatorsAgreeWithExactOverFlat(t *testing.T) {
	const k = 10
	for _, dim := range []int{33, 420} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			ds, err := dataset.Generate(dataset.GenConfig{
				Name: "differential", N: 1500, Dim: dim, Queries: 40, TrainQueries: 60,
				VE32: 0.6, Seed: int64(1000 + dim),
			})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(ds.Data, Flat, &Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			modes := []Mode{DDCRes, DDCPCA, ADSampling}
			for _, m := range modes {
				if err := ix.EnableWithTraining(m, ds.Train, nil); err != nil {
					t.Fatal(err)
				}
			}
			hits := make(map[Mode]int, len(modes))
			for qi, q := range ds.Queries {
				exact, err := ix.Search(q, k, Exact, 0)
				if err != nil {
					t.Fatal(err)
				}
				truth := make(map[int]bool, k)
				for _, n := range exact {
					truth[n.ID] = true
				}
				for _, m := range modes {
					got, err := ix.Search(q, k, m, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range got {
						if truth[n.ID] {
							hits[m]++
						}
						want := vec.L2Sq64(q, ds.Data[n.ID])
						if score := float64(ix.Score(n, q)); math.Abs(score-want) > 1e-3*want {
							t.Errorf("%s query %d: id %d scored %v, true distance %v", m, qi, n.ID, score, want)
						}
					}
				}
			}
			for _, m := range modes {
				if recall := float64(hits[m]) / float64(k*len(ds.Queries)); recall < 0.99 {
					t.Errorf("%s: recall@%d %.4f against exact, want >= 0.99", m, k, recall)
				}
			}
		})
	}
}
