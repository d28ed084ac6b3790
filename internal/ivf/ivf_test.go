package ivf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/heap"
	"resinfer/internal/kmeans"
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
	out, err := s.idx.SearchEval(s.ev, q, k, nprobe, s.size, nil, nil)
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

// The flat index is OneList: the tests below scan every point, whatever
// the nprobe.

func TestFlatBuildErrors(t *testing.T) {
	if _, err := OneList(0, 5); err == nil {
		t.Fatal("expected invalid-shape error")
	}
	if _, err := OneList(5, 0); err == nil {
		t.Fatal("expected invalid-shape error")
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
	idx, err := OneList(len(ds.Data), ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	dco, _ := core.NewExact(ds.Matrix())
	s := newEvalSearch(idx, dco)
	for qi, q := range ds.Queries {
		items, st, err := s.search(q, 10, 8)
		if err != nil {
			t.Fatal(err)
		}
		if st.Comparisons != int64(len(ds.Data)) {
			t.Fatalf("query %d: %d comparisons over %d points", qi, st.Comparisons, len(ds.Data))
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
	idx, _ := OneList(len(ds.Data), ds.Dim)
	dco, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 7, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]int, len(ds.Queries))
	var prunedTotal, compTotal int64
	s := newEvalSearch(idx, dco)
	for qi, q := range ds.Queries {
		items, st, err := s.search(q, 10, 1)
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
	idx, _ := OneList(data.Rows(), data.Dim())
	dco, _ := core.NewExact(data)
	if _, _, err := newEvalSearch(idx, dco).search([]float32{1, 2}, 0, 1); err == nil {
		t.Fatal("expected k error")
	}
	other, _ := core.NewExact(store.MustFromRows([][]float32{{1, 2}}))
	if _, _, err := newEvalSearch(idx, other).search([]float32{1, 2}, 1, 1); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if idx.Len() != 2 || idx.Dim() != 2 || idx.NList() != 1 {
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
	idx, _ := OneList(mat.Rows(), mat.Dim())
	dco, _ := core.NewExact(mat)
	items, _, err := newEvalSearch(idx, dco).search([]float32{0}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("k>n should return all %d points, got %d", 5, len(items))
	}
}

// scanPerRow is the scan as it ran before blocks: one Compare per id of
// the probed lists, each under the τ of the moment. It is the reference
// SearchEval's block pruning must reproduce bit for bit.
func scanPerRow(idx *Index, ev core.QueryEvaluator, q []float32, k, nprobe int) []Result {
	probes, _ := kmeans.NearestCentroidsInto(idx.centroids, q, max(nprobe, 1), nil, nil)
	rq := heap.NewResultQueue(min(k, idx.size))
	for _, c := range probes {
		for _, id := range idx.lists[c] {
			tau := rq.Threshold()
			d, pruned := ev.Compare(int(id), tau)
			if pruned {
				continue
			}
			if d < tau {
				rq.Push(int(id), d)
			}
		}
	}
	return rq.Sorted()
}

// TestBlockScanMatchesPerRowScan: over Flat and a multi-list IVF, at
// nprobe 1, 4 and every list, with exact, adsampling and ddc-res, and at
// k = 10 and k > n, SearchEval answers the same (id, distance bits) and
// counts the same core.Stats as the per-row scan. n = 1 000 is not a
// multiple of core.PruneBlock, so every list ends mid-block.
func TestBlockScanMatchesPerRowScan(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "block-scan", N: 1000, Dim: 96, Queries: 8, VE32: 0.8, Seed: 38,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := OneList(len(ds.Data), ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := Build(ds.Matrix(), Config{NList: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := core.NewExact(ds.Matrix())
	ads, err := adsampling.New(ds.Matrix(), adsampling.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pruned int64
	for _, idx := range []*Index{flat, lists} {
		for _, dco := range []core.DCO{exact, ads, res} {
			s, ref := newEvalSearch(idx, dco), dco.NewEvaluator()
			for _, nprobe := range []int{1, 4, idx.NList()} {
				for _, k := range []int{10, len(ds.Data) + 5} {
					for qi, q := range ds.Queries {
						got, st, err := s.search(q, k, nprobe)
						if err != nil {
							t.Fatal(err)
						}
						if err := ref.Reset(q); err != nil {
							t.Fatal(err)
						}
						want := scanPerRow(idx, ref, q, k, nprobe)
						label := fmt.Sprintf("%d lists, %s, nprobe %d, k %d, q%d", idx.NList(), dco.Name(), nprobe, k, qi)
						if len(got) != len(want) {
							t.Fatalf("%s: %d hits, per-row scan %d", label, len(got), len(want))
						}
						for i := range got {
							if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
								t.Fatalf("%s: hit %d is %+v, per-row scan %+v", label, i, got[i], want[i])
							}
						}
						if st != *ref.Stats() {
							t.Fatalf("%s: counted %+v, per-row scan %+v", label, st, *ref.Stats())
						}
						pruned += st.Pruned
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no comparator pruned: the test compared nothing but exact paths")
	}
}

// noBulkPrune is an evaluator that rules nothing out in bulk, so every id
// of a block survives Prune and reaches the scan's mask test.
type noBulkPrune struct{ core.ResettableEvaluator }

func (noBulkPrune) Prune(ids []int32, _ float32, _ []int32) []int32 { return ids }

// TestSearchEvalMask: a masked scan answers exactly as the per-row scan
// over the unmasked rows alone, (id, distance bits) alike, and never
// returns a masked id. Every id offered still counts as one comparison: a
// masked one Prune did not rule out counts as one pruned comparison that
// read no coordinates, which an evaluator whose Prune rules out nothing
// shows exactly. The mask hides each query's true nearest rows, so an
// ignored mask would answer them.
func TestSearchEvalMask(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "mask-scan", N: 1000, Dim: 96, Queries: 8, VE32: 0.8, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mask := core.NewRowMask(len(ds.Data))
	for id := 0; id < len(ds.Data); id += 3 {
		mask.Set(id)
	}
	for _, ids := range gt {
		for _, id := range ids {
			mask.Set(id)
		}
	}
	flat, err := OneList(len(ds.Data), ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := Build(ds.Matrix(), Config{NList: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := core.NewExact(ds.Matrix())
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []*Index{flat, lists} {
		for _, dco := range []core.DCO{exact, res} {
			for _, bulk := range []bool{true, false} {
				ev, ref := dco.NewEvaluator(), dco.NewEvaluator()
				if !bulk {
					ev = noBulkPrune{ev}
				}
				for _, nprobe := range []int{1, idx.NList()} {
					for qi, q := range ds.Queries {
						label := fmt.Sprintf("%d lists, %s, bulk %v, nprobe %d, q%d", idx.NList(), dco.Name(), bulk, nprobe, qi)
						if err := ev.Reset(q); err != nil {
							t.Fatal(err)
						}
						got, err := idx.SearchEval(ev, q, 10, nprobe, len(ds.Data), mask, nil)
						if err != nil {
							t.Fatal(err)
						}
						if err := ref.Reset(q); err != nil {
							t.Fatal(err)
						}
						want := scanPerRow(idx, maskedEval{ref, mask}, q, 10, nprobe)
						if len(got) != len(want) {
							t.Fatalf("%s: %d hits, per-row scan of the unmasked rows %d", label, len(got), len(want))
						}
						for i := range got {
							if mask.Has(got[i].ID) {
								t.Fatalf("%s: masked id %d returned", label, got[i].ID)
							}
							if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
								t.Fatalf("%s: hit %d is %+v, per-row scan of the unmasked rows %+v", label, i, got[i], want[i])
							}
						}
						offered, masked := 0, 0
						probes, _ := kmeans.NearestCentroidsInto(idx.centroids, q, nprobe, nil, nil)
						for _, c := range probes {
							for _, id := range idx.lists[c] {
								offered++
								if mask.Has(int(id)) {
									masked++
								}
							}
						}
						st, rst := *ev.Stats(), *ref.Stats()
						if st.Comparisons != int64(offered) || rst.Comparisons != int64(offered-masked) {
							t.Fatalf("%s: %d comparisons (reference %d) over %d ids offered, %d masked", label, st.Comparisons, rst.Comparisons, offered, masked)
						}
						if st.Pruned != rst.Pruned+int64(masked) {
							t.Fatalf("%s: %d pruned, want the reference's %d plus %d masked", label, st.Pruned, rst.Pruned, masked)
						}
						if !bulk && (st.DimsScanned != rst.DimsScanned || st.ExactDistances != rst.ExactDistances) {
							t.Fatalf("%s: masked survivors read coordinates: counted %+v, reference %+v", label, st, rst)
						}
					}
				}
			}
		}
	}
}

// maskedEval is the reference's view of the unmasked rows: a masked id
// is ruled out before Compare, read and counted by nothing.
type maskedEval struct {
	core.ResettableEvaluator
	mask core.RowMask
}

func (m maskedEval) Compare(id int, tau float32) (float32, bool) {
	if m.mask.Has(id) {
		return float32(math.Inf(1)), true
	}
	return m.ResettableEvaluator.Compare(id, tau)
}
