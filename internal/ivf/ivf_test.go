package ivf

import (
	"sync"
	"testing"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/store"
)

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
			Name: "ivf-test", N: 5000, Dim: 96, Queries: 30, TrainQueries: 50,
			VE32: 0.8, Seed: 23,
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
		idx, err := Build(ds.Matrix(), Config{Seed: 11})
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
func (s *evalSearch) search(q []float32, k, nprobe int) ([]Result, core.Stats, error) {
	if err := s.ev.Reset(q); err != nil {
		return nil, core.Stats{}, err
	}
	out, err := s.idx.SearchEval(s.ev, q, k, nprobe, s.size, nil)
	return out, *s.ev.Stats(), err
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestBuildDefaultNList(t *testing.T) {
	_, _, idx := getFixtures(t)
	// Default: smallest power-of-two-scaled value with NList² >= n.
	if idx.NList() < 64 || idx.NList() > 256 {
		t.Fatalf("NList = %d for n=5000", idx.NList())
	}
}

func TestListsPartitionData(t *testing.T) {
	_, _, idx := getFixtures(t)
	seen := make([]bool, idx.Len())
	total := 0
	for c := 0; c < idx.NList(); c++ {
		for _, id := range idx.lists[c] {
			if seen[id] {
				t.Fatalf("point %d in two lists", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != idx.Len() {
		t.Fatalf("lists cover %d of %d points", total, idx.Len())
	}
}

func TestSearchErrors(t *testing.T) {
	ds, _, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	if _, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 0, 4); err == nil {
		t.Fatal("expected k error")
	}
	smaller, _ := core.NewExact(store.MustFromRows(ds.Data[:10]))
	if _, _, err := newEvalSearch(idx, smaller).search(ds.Queries[0], 5, 4); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestSearchFullProbeIsExact(t *testing.T) {
	// Probing every list is a brute-force scan: recall must be 1.
	ds, gt, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	results := make([][]int, len(ds.Queries))
	s := newEvalSearch(idx, dco)
	for qi, q := range ds.Queries {
		items, _, err := s.search(q, 10, idx.NList())
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			results[qi] = append(results[qi], it.ID)
		}
	}
	if r := dataset.Recall(results, gt, 10); r < 0.9999 {
		t.Fatalf("full-probe recall = %v, want 1", r)
	}
}

func TestRecallGrowsWithNProbe(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	s := newEvalSearch(idx, dco)
	recallAt := func(nprobe int) float64 {
		results := make([][]int, len(ds.Queries))
		for qi, q := range ds.Queries {
			items, _, err := s.search(q, 10, nprobe)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				results[qi] = append(results[qi], it.ID)
			}
		}
		return dataset.Recall(results, gt, 10)
	}
	r1, r8, r64 := recallAt(1), recallAt(8), recallAt(64)
	if !(r1 <= r8+0.02 && r8 <= r64+0.02) {
		t.Fatalf("recall not increasing: %v %v %v", r1, r8, r64)
	}
	if r64 < 0.9 {
		t.Fatalf("recall@nprobe=64 = %v too low", r64)
	}
}

func TestSearchWithDCOsPreservesRecall(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	ads, err := adsampling.New(ds.Matrix(), adsampling.Config{Seed: 1, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 2, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: exact DCO at the same nprobe. Approximate DCOs may lose
	// only a sliver of recall relative to it (the probing, not the DCO,
	// caps recall at a fixed nprobe).
	exact, _ := core.NewExact(ds.Matrix())
	run := func(dco core.DCO) (float64, core.Stats) {
		var agg core.Stats
		results := make([][]int, len(ds.Queries))
		s := newEvalSearch(idx, dco)
		for qi, q := range ds.Queries {
			items, st, err := s.search(q, 10, 16)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(st)
			for _, it := range items {
				results[qi] = append(results[qi], it.ID)
			}
		}
		return dataset.Recall(results, gt, 10), agg
	}
	baseline, _ := run(exact)
	for _, dco := range []core.DCO{ads, res} {
		r, agg := run(dco)
		if r < baseline-0.02 {
			t.Fatalf("%s: IVF recall %v below exact baseline %v", dco.Name(), r, baseline)
		}
		if agg.Pruned == 0 {
			t.Fatalf("%s: never pruned", dco.Name())
		}
	}
}

// IVF's pruning is much stronger than HNSW's because scanned lists contain
// many far points: the pruned rate should be high (paper Fig. 10 reports
// 96%+).
func TestIVFPrunedRateHigh(t *testing.T) {
	ds, _, idx := getFixtures(t)
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 2, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	var agg core.Stats
	s := newEvalSearch(idx, res)
	for _, q := range ds.Queries {
		_, st, err := s.search(q, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
	}
	if pr := agg.PrunedRate(); pr < 0.5 {
		t.Fatalf("IVF-DDCres pruned rate %v, want > 0.5", pr)
	}
}

func TestIndexBytesPositive(t *testing.T) {
	_, _, idx := getFixtures(t)
	want := int64(idx.NList()*idx.Dim()*4) + int64(idx.Len()*4)
	if idx.IndexBytes() != want {
		t.Fatalf("IndexBytes = %d, want %d", idx.IndexBytes(), want)
	}
}

func TestNProbeClamp(t *testing.T) {
	ds, _, idx := getFixtures(t)
	dco, _ := core.NewExact(ds.Matrix())
	// nprobe <= 0 clamps to 1; larger than NList clamps to NList.
	s := newEvalSearch(idx, dco)
	if _, _, err := s.search(ds.Queries[0], 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.search(ds.Queries[0], 5, 1<<20); err != nil {
		t.Fatal(err)
	}
}
