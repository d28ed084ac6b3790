package hnsw

import (
	"sync"
	"testing"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/store"
)

// Shared fixtures: one calibrated dataset, its ground truth, and one built
// graph, reused across tests (construction dominates test runtime).
var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixGT   [][]int
	fixIdx  *Index
	fixErr  error
)

func getFixtures(t testing.TB) (*dataset.Dataset, [][]int, *Index) {
	fixOnce.Do(func() {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "hnsw-test", N: 4000, Dim: 128, Queries: 30, TrainQueries: 50,
			VE32: 0.85, Seed: 17,
		})
		if err != nil {
			fixErr = err
			return
		}
		gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
		if err != nil {
			fixErr = err
			return
		}
		idx, err := Build(ds.Matrix(), Config{M: 16, EfConstruction: 200, Seed: 5})
		if err != nil {
			fixErr = err
			return
		}
		fixDS, fixGT, fixIdx = ds, gt, idx
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDS, fixGT, fixIdx
}

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
func (s *evalSearch) search(q []float32, k, ef int) ([]Result, core.Stats, error) {
	if err := s.ev.Reset(q); err != nil {
		return nil, core.Stats{}, err
	}
	out, err := s.idx.SearchEval(s.ev, k, ef, s.size, nil)
	return out, *s.ev.Stats(), err
}

func searchAll(t testing.TB, idx *Index, dco core.DCO, queries [][]float32, k, ef int) ([][]int, core.Stats) {
	var agg core.Stats
	results := make([][]int, len(queries))
	s := newEvalSearch(idx, dco)
	for qi, q := range queries {
		items, st, err := s.search(q, k, ef)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
		for _, it := range items {
			results[qi] = append(results[qi], it.ID)
		}
	}
	return results, agg
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := store.FromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestSearchErrors(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, err := Build(store.MustFromRows(ds.Data[:100]), Config{M: 8, EfConstruction: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dco, _ := core.NewExact(store.MustFromRows(ds.Data[:100]))
	if _, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 0, 10); err == nil {
		t.Fatal("expected k error")
	}
	smaller, _ := core.NewExact(store.MustFromRows(ds.Data[:50]))
	if _, _, err := newEvalSearch(idx, smaller).search(ds.Queries[0], 5, 10); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestSearchHighRecallExact(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	results, _ := searchAll(t, idx, dco, ds.Queries, 10, 100)
	if r := dataset.Recall(results, gt, 10); r < 0.95 {
		t.Fatalf("exact-HNSW recall@10 = %v, want >= 0.95", r)
	}
}

func TestSearchResultsSorted(t *testing.T) {
	ds, _, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	items, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(items); i++ {
		if items[i].Dist > items[i+1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
	if len(items) != 10 {
		t.Fatalf("len = %d, want 10", len(items))
	}
}

// The paper's central comparison, in miniature: both approximate DCOs must
// preserve recall, both must prune, and DDCres (PCA projection on skewed
// data) must scan fewer dimensions than ADSampling (random projection) —
// Theorem 1 made operational (Exp-6).
func TestDDCresBeatsADSamplingScanRate(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	ads, err := adsampling.New(ds.Matrix(), adsampling.Config{Seed: 3, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 4, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	adsResults, adsStats := searchAll(t, idx, ads, ds.Queries, 10, 20)
	resResults, resStats := searchAll(t, idx, res, ds.Queries, 10, 20)

	if r := dataset.Recall(adsResults, gt, 10); r < 0.8 {
		t.Fatalf("HNSW++ recall@10 = %v", r)
	}
	if r := dataset.Recall(resResults, gt, 10); r < 0.8 {
		t.Fatalf("HNSW-DDCres recall@10 = %v", r)
	}
	if adsStats.Pruned == 0 || resStats.Pruned == 0 {
		t.Fatalf("both methods must prune: ads=%d res=%d", adsStats.Pruned, resStats.Pruned)
	}
	adsRate := adsStats.ScanRate(128)
	resRate := resStats.ScanRate(128)
	if resRate >= adsRate {
		t.Fatalf("DDCres scan rate %v must beat ADSampling %v on skewed data", resRate, adsRate)
	}
	if resRate > 0.8 {
		t.Fatalf("DDCres scan rate %v too high for VE32=0.85 data", resRate)
	}
}

func TestGraphInvariants(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:1000]), Config{M: 8, EfConstruction: 64, Seed: 7})
	if idx.Len() != 1000 || idx.Dim() != 128 {
		t.Fatal("metadata")
	}
	// Degree caps hold; no self-links; neighbor ids valid and reach the
	// linking level.
	for node := int32(0); node < 1000; node++ {
		for l := 0; l < len(idx.links[node]); l++ {
			maxConn := idx.m
			if l == 0 {
				maxConn = idx.mMax0
			}
			lst := idx.Neighbors(node, l)
			if len(lst) > maxConn {
				t.Fatalf("node %d level %d degree %d > %d", node, l, len(lst), maxConn)
			}
			for _, nb := range lst {
				if nb == node {
					t.Fatalf("self link at node %d", node)
				}
				if nb < 0 || nb >= 1000 {
					t.Fatalf("bad neighbor id %d", nb)
				}
				if len(idx.links[nb]) <= l {
					t.Fatalf("node %d links to %d at level %d beyond its top", node, nb, l)
				}
			}
		}
	}
	if idx.MaxLevel() < 0 || int(idx.Entry()) >= 1000 {
		t.Fatal("entry metadata")
	}
	if idx.GraphBytes() <= 0 {
		t.Fatal("GraphBytes must be positive")
	}
}

func TestLayer0Connectivity(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:2000]), Config{M: 8, EfConstruction: 64, Seed: 9})
	seen := make([]bool, 2000)
	queue := []int32{idx.Entry()}
	seen[idx.Entry()] = true
	count := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, nb := range idx.Neighbors(n, 0) {
			if !seen[nb] {
				seen[nb] = true
				count++
				queue = append(queue, nb)
			}
		}
	}
	if float64(count)/2000 < 0.99 {
		t.Fatalf("layer-0 reachability %d/2000", count)
	}
}

func TestBuildSingleWorkerDeterministic(t *testing.T) {
	ds, _, _ := getFixtures(t)
	a, err := Build(store.MustFromRows(ds.Data[:500]), Config{M: 8, EfConstruction: 50, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(store.MustFromRows(ds.Data[:500]), Config{M: 8, EfConstruction: 50, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for n := int32(0); n < 500; n++ {
		la, lb := a.Neighbors(n, 0), b.Neighbors(n, 0)
		if len(la) != len(lb) {
			t.Fatalf("node %d: nondeterministic build with 1 worker", n)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("node %d: neighbor lists differ", n)
			}
		}
	}
}

func TestSearchEfClampedToK(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:300]), Config{M: 8, EfConstruction: 32, Seed: 1})
	dco, _ := core.NewExact(store.MustFromRows(ds.Data[:300]))
	items, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 20 {
		t.Fatalf("ef < k must clamp; got %d results", len(items))
	}
}
