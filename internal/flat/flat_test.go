package flat

import (
	"math/rand"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/store"
)

// evalSearch runs queries the way Index.walk does in production: one
// evaluator per comparator, Reset per query, then SearchEval — the index's
// only search entry point.
type evalSearch struct {
	idx  *Index
	size int
	ev   core.ResettableEvaluator
}

func newEvalSearch(idx *Index, dco core.DCO) *evalSearch {
	return &evalSearch{idx: idx, size: dco.Size(), ev: dco.NewEvaluator()}
}

// search returns the hits and the work counters of one query.
func (s *evalSearch) search(q []float32, k int) ([]Result, core.Stats, error) {
	if err := s.ev.Reset(q); err != nil {
		return nil, core.Stats{}, err
	}
	out, err := s.idx.SearchEval(s.ev, k, s.size, nil)
	return out, *s.ev.Stats(), err
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := New(0, 5); err == nil {
		t.Fatal("expected invalid-dims error")
	}
}

func TestFlatExactEqualsBruteForce(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "flat-test", N: 1200, Dim: 32, Queries: 10, VE32: 0.8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	dco, _ := core.NewExact(ds.Matrix())
	s := newEvalSearch(idx, dco)
	for qi, q := range ds.Queries {
		items, _, err := s.search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.ID != gt[qi][i] {
				t.Fatalf("query %d result %d: %d vs gt %d", qi, i, it.ID, gt[qi][i])
			}
		}
	}
}

func TestFlatWithDDCresNearExact(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "flat-ddc", N: 2000, Dim: 64, Queries: 15, VE32: 0.85, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := Build(ds.Matrix())
	dco, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 7, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int, len(ds.Queries))
	var prunedTotal, compTotal int64
	s := newEvalSearch(idx, dco)
	for qi, q := range ds.Queries {
		items, st, err := s.search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		prunedTotal += st.Pruned
		compTotal += st.Comparisons
		for _, it := range items {
			results[qi] = append(results[qi], it.ID)
		}
	}
	if r := dataset.Recall(results, gt, 10); r < 0.99 {
		t.Fatalf("flat DDCres recall = %v", r)
	}
	// The queue threshold tightens quickly, so the bulk of the scan prunes.
	if rate := float64(prunedTotal) / float64(compTotal); rate < 0.5 {
		t.Fatalf("flat scan pruned rate %v too low", rate)
	}
}

func TestFlatErrors(t *testing.T) {
	data := store.MustFromRows([][]float32{{1, 2}, {3, 4}})
	idx, _ := Build(data)
	dco, _ := core.NewExact(data)
	if _, _, err := newEvalSearch(idx, dco).search([]float32{1, 2}, 0); err == nil {
		t.Fatal("expected k error")
	}
	other, _ := core.NewExact(store.MustFromRows([][]float32{{1, 2}}))
	if _, _, err := newEvalSearch(idx, other).search([]float32{1, 2}, 1); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if idx.Len() != 2 || idx.Dim() != 2 {
		t.Fatal("metadata")
	}
}

func TestFlatKLargerThanN(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([][]float32, 5)
	for i := range data {
		data[i] = []float32{float32(r.NormFloat64())}
	}
	mat := store.MustFromRows(data)
	idx, _ := Build(mat)
	dco, _ := core.NewExact(mat)
	items, _, err := newEvalSearch(idx, dco).search([]float32{0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("k>n should return all %d points, got %d", 5, len(items))
	}
}
