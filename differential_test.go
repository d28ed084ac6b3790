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

// TestComparatorsAgreeWithExactOverMutableShards carries the differential
// test to what a shared, inherited rotation must not break: a 4-shard
// mutable index whose comparators are built around one rotation per mode,
// checked as built, after rows the rotation never saw — shifted and
// rescaled — were ingested and every shard compacted around the inherited
// rotation, and after a second wave whose energy sits in the dimensions the
// rotation ranked last. Under all three metrics every merge key returned
// must be the true one within 1e-3 relative at every stage — an aged
// rotation may prune less, it can never answer wrong — and recall against
// the exact mode must stay at 0.99. The one exemption is ddc-pca after the
// reversed wave: its classifiers read prefix distances, which say little
// once the rotation no longer concentrates the energy (measured: 0.99 under
// cosine here, 0.965 when all 400 ingested rows are reversed) — the state
// CompactionInfo.LeadShare exists to flag.
func TestComparatorsAgreeWithExactOverMutableShards(t *testing.T) {
	const k, dim = 10, 96
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "differential-mutable", N: 1600, Dim: dim, Queries: 40, TrainQueries: 60,
		VE32: 0.6, Seed: 2024,
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{DDCRes, DDCPCA, ADSampling}
	for _, mk := range []MetricKind{L2, Cosine, InnerProduct} {
		t.Run(string(mk), func(t *testing.T) {
			mx, err := NewMutable(ds.Data[:1200], Flat, 4, &MutableOptions{
				Index: &Options{Seed: 5, Metric: mk}, DisableAutoCompact: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			for _, m := range modes {
				if err := mx.EnableWithTraining(m, ds.Train, nil); err != nil {
					t.Fatal(err)
				}
			}
			rows := map[int][]float32{}
			for id, r := range ds.Data[:1200] {
				rows[id] = r
			}
			// trueKey is the merge key of row x for query q, in float64.
			trueKey := func(q, x []float32) float64 {
				switch mk {
				case Cosine:
					return 2 - 2*vec.Dot64(q, x)/math.Sqrt(vec.Dot64(q, q)*vec.Dot64(x, x))
				case InnerProduct:
					return -vec.Dot64(q, x)
				}
				return vec.L2Sq64(q, x)
			}
			check := func(stage string, exempt Mode) {
				hits := make(map[Mode]int, len(modes))
				for qi, q := range ds.Queries {
					exact, err := mx.Search(q, k, Exact, 0)
					if err != nil {
						t.Fatal(err)
					}
					truth := make(map[int]bool, k)
					for _, n := range exact {
						truth[n.ID] = true
					}
					for _, m := range modes {
						got, err := mx.Search(q, k, m, 0)
						if err != nil {
							t.Fatal(err)
						}
						for _, n := range got {
							if truth[n.ID] {
								hits[m]++
							}
							want := trueKey(q, rows[n.ID])
							if math.Abs(float64(n.Distance)-want) > 1e-3*math.Abs(want)+1e-5 {
								t.Errorf("%s %s query %d: id %d has key %v, true key %v", stage, m, qi, n.ID, n.Distance, want)
							}
						}
					}
				}
				for _, m := range modes {
					recall := float64(hits[m]) / float64(k*len(ds.Queries))
					if m == exempt {
						t.Logf("%s %s: recall@%d %.4f against exact", stage, m, k, recall)
					} else if recall < 0.99 {
						t.Errorf("%s %s: recall@%d %.4f against exact, want >= 0.99", stage, m, k, recall)
					}
				}
			}
			ingest := func(src [][]float32, drift func(dst, r []float32)) {
				for _, r := range src {
					row := make([]float32, dim)
					drift(row, r)
					id, err := mx.Add(row)
					if err != nil {
						t.Fatal(err)
					}
					rows[id] = row
				}
				if n, err := mx.Compact(); err != nil || n != 4 {
					t.Fatalf("Compact rebuilt %d shards, err %v; want 4", n, err)
				}
			}
			check("as built", "")
			ingest(ds.Data[1200:1400], func(dst, r []float32) {
				for j, v := range r {
					dst[j] = 1.5*v + 0.5
				}
			})
			check("after shifted rows", "")
			ingest(ds.Data[1400:], func(dst, r []float32) {
				for j, v := range r {
					dst[dim-1-j] = 1.5*v + 0.5
				}
			})
			check("after reversed rows", DDCPCA)
		})
	}
}
