package resinfer

// Golden equivalence tests for the contiguous-storage refactor: the flat
// row-major layout and the pooled (Reset-reused) evaluators must return
// BIT-IDENTICAL distances and results to the seed's per-row [][]float32
// path. The kernels are shared between both layouts and read coordinates
// in the same order, so equality here is exact, not approximate.

import (
	"sync"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/heap"
	"resinfer/internal/vec"
)

// rowsScanReference is the seed path: a k-NN scan over the caller's row
// slices using the shared slice kernel.
func rowsScanReference(rows [][]float32, q []float32, k int) []heap.Item {
	rq := heap.NewResultQueue(k)
	for id := range rows {
		d := vec.L2Sq(q, rows[id])
		if d < rq.Threshold() {
			rq.Push(id, d)
		}
	}
	return rq.Sorted()
}

func TestFlatLayoutBitIdenticalToRowsScan(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, Flat, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		want := rowsScanReference(ds.Data, q, 10)
		got, _, err := ix.SearchInto(nil, q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Distance != want[i].Dist {
				t.Fatalf("query %d hit %d: (%d, %v) differs from rows path (%d, %v)",
					qi, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Dist)
			}
		}
	}
}

// TestPooledEvaluatorBitIdenticalToFresh asserts that an evaluator that
// has been Reset and reused across many queries answers exactly like a
// freshly built one, for every DCO in the repository.
func TestPooledEvaluatorBitIdenticalToFresh(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, Flat, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(ADSampling, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableWithTraining(DDCPCA, ds.Train, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableWithTraining(DDCOPQ, ds.Train, nil); err != nil {
		t.Fatal(err)
	}
	taus := []float32{0.5, 5, 50, core.InfThreshold}
	for _, mode := range []Mode{Exact, ADSampling, DDCRes, DDCPCA, DDCOPQ} {
		dco := ix.modes[mode].dco
		reused := dco.NewEvaluator()
		for qi, q := range ds.Queries {
			fresh := dco.NewEvaluator()
			if err := fresh.Reset(q); err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(q); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 200; id++ {
				tau := taus[(qi+id)%len(taus)]
				df, pf := fresh.Compare(id, tau)
				dr, pr := reused.Compare(id, tau)
				if df != dr || pf != pr {
					t.Fatalf("%s query %d id %d tau %v: fresh (%v,%v) vs reused (%v,%v)",
						mode, qi, id, tau, df, pf, dr, pr)
				}
				if dd, dd2 := fresh.Distance(id), reused.Distance(id); dd != dd2 {
					t.Fatalf("%s query %d id %d: Distance %v vs %v", mode, qi, id, dd, dd2)
				}
			}
			sf, sr := fresh.Stats(), reused.Stats()
			if *sf != *sr {
				t.Fatalf("%s query %d: stats diverge: %+v vs %+v", mode, qi, *sf, *sr)
			}
		}
	}
}

// TestSearchIntoMatchesSearch asserts the allocation-free entry point
// returns exactly what the allocating one does, for every index kind.
func TestSearchIntoMatchesSearch(t *testing.T) {
	ds, _ := apiFixtures(t)
	for _, kind := range []IndexKind{Flat, HNSW, IVF} {
		ix, err := New(ds.Data, kind, &Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Enable(DDCRes, nil); err != nil {
			t.Fatal(err)
		}
		var dst []Neighbor
		for _, mode := range []Mode{Exact, DDCRes} {
			for _, q := range ds.Queries {
				want, wantSt, err := ix.SearchInto(nil, q, 10, mode, 40)
				if err != nil {
					t.Fatal(err)
				}
				var gotSt SearchStats
				dst, gotSt, err = ix.SearchInto(dst[:0], q, 10, mode, 40)
				if err != nil {
					t.Fatal(err)
				}
				if len(dst) != len(want) || gotSt != wantSt {
					t.Fatalf("%s/%s: SearchInto diverges (%d vs %d hits, %+v vs %+v)",
						kind, mode, len(dst), len(want), gotSt, wantSt)
				}
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("%s/%s hit %d: %+v vs %+v", kind, mode, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestConcurrentPooledSearchConsistency hammers one index from many
// goroutines across modes and entry points and checks every result against
// the sequential answer — run under -race this also proves the pools do
// not share per-query state.
func TestConcurrentPooledSearchConsistency(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(ADSampling, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	modes := []Mode{Exact, ADSampling, DDCRes}
	want := map[Mode][][]Neighbor{}
	for _, mode := range modes {
		want[mode] = make([][]Neighbor, len(ds.Queries))
		for qi, q := range ds.Queries {
			ns, err := ix.Search(q, 10, mode, 60)
			if err != nil {
				t.Fatal(err)
			}
			want[mode][qi] = ns
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []Neighbor
			for rep := 0; rep < 5; rep++ {
				for qi, q := range ds.Queries {
					mode := modes[(g+qi+rep)%len(modes)]
					var ns []Neighbor
					var err error
					if (g+rep)%2 == 0 {
						ns, err = ix.Search(q, 10, mode, 60)
					} else {
						dst, _, err = ix.SearchInto(dst[:0], q, 10, mode, 60)
						ns = dst
					}
					if err != nil {
						errCh <- err
						return
					}
					exp := want[mode][qi]
					if len(ns) != len(exp) {
						errCh <- errMismatch(mode, qi)
						return
					}
					for i := range exp {
						if ns[i] != exp[i] {
							errCh <- errMismatch(mode, qi)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type mismatchError struct {
	mode Mode
	qi   int
}

func (e mismatchError) Error() string {
	return "concurrent result for mode " + string(e.mode) + " diverged from sequential"
}

func errMismatch(mode Mode, qi int) error { return mismatchError{mode, qi} }
