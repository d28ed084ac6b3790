package hnsw

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// checkGraph asserts what every built graph must satisfy whatever the
// worker count: degree caps hold, no self-links, neighbor ids are valid and
// reach the linking level, and the entry point is a tallest node.
func checkGraph(t *testing.T, idx *Index) {
	t.Helper()
	n, tallest := int32(idx.Len()), 0
	for node := int32(0); node < n; node++ {
		tallest = max(tallest, len(idx.links[node])-1)
		for l := 0; l < len(idx.links[node]); l++ {
			lst := idx.Neighbors(node, l)
			if len(lst) > idx.maxConn(l) {
				t.Fatalf("node %d level %d degree %d > %d", node, l, len(lst), idx.maxConn(l))
			}
			for _, nb := range lst {
				if nb == node {
					t.Fatalf("self link at node %d", node)
				}
				if nb < 0 || nb >= n {
					t.Fatalf("bad neighbor id %d", nb)
				}
				if len(idx.links[nb]) <= l {
					t.Fatalf("node %d links to %d at level %d beyond its top", node, nb, l)
				}
			}
		}
	}
	if e := idx.Entry(); e < 0 || e >= n || len(idx.links[e])-1 != idx.MaxLevel() || idx.MaxLevel() != tallest {
		t.Fatalf("entry %d at level %d, MaxLevel %d, tallest node %d", e, len(idx.links[e])-1, idx.MaxLevel(), tallest)
	}
}

// reachable counts the nodes a layer-0 walk from the entry point finds.
func reachable(idx *Index) int {
	seen := make([]bool, idx.Len())
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
	return count
}

func TestGraphInvariants(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:1000]), Config{M: 8, EfConstruction: 64, Seed: 7})
	if idx.Len() != 1000 || idx.Dim() != 128 {
		t.Fatal("metadata")
	}
	checkGraph(t, idx)
	if idx.GraphBytes() <= 0 {
		t.Fatal("GraphBytes must be positive")
	}
}

func TestLayer0Connectivity(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:2000]), Config{M: 8, EfConstruction: 64, Seed: 9})
	if count := reachable(idx); float64(count)/2000 < 0.99 {
		t.Fatalf("layer-0 reachability %d/2000", count)
	}
}

// TestBuildParallelInvariants: the graph is a pure function of (data, cfg)
// — Encode writes one sha256 at Workers 1, 2 and 8 under GOMAXPROCS 1 and 2
// — and it keeps the invariants and, at M = 8, a connected layer 0. The
// tall case (M = 2: about half the nodes have upper layers, so batches open
// new top layers) is there for the invariants; four links on layer 0
// promise no connected layer.
func TestBuildParallelInvariants(t *testing.T) {
	ds, _, _ := getFixtures(t)
	const n = 2000
	mat := store.MustFromRows(ds.Data[:n])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range []int{8, 2} {
		var want [sha256.Size]byte
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 8} {
				idx, err := Build(mat, Config{M: m, EfConstruction: 64, Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				checkGraph(t, idx)
				if count := reachable(idx); m > 2 && float64(count)/n < 0.99 {
					t.Fatalf("M=%d workers=%d: layer-0 reachability %d/%d", m, workers, count, n)
				}
				got := sha256.Sum256(encodeBytes(t, idx))
				if procs == 1 && workers == 1 {
					want = got
					t.Logf("M=%d: max level %d, sha256 %x", m, idx.MaxLevel(), got[:6])
				} else if got != want {
					t.Fatalf("M=%d GOMAXPROCS=%d workers=%d: Encode sha256 %x, one worker's %x", m, procs, workers, got[:6], want[:6])
				}
			}
		}
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
	// No beam holds more than n nodes, so ef past n is ef = n.
	atN, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 20, idx.Len())
	if err != nil {
		t.Fatal(err)
	}
	atMax, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 20, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(atMax, atN) {
		t.Fatalf("ef = MaxInt answered %v, ef = n answered %v", atMax, atN)
	}
	// Nor does a result queue: k past n is k = n.
	kN, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], idx.Len(), 1)
	if err != nil {
		t.Fatal(err)
	}
	kMax, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], math.MaxInt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(kMax, kN) {
		t.Fatalf("k = MaxInt answered %d hits, k = n answered %d", len(kMax), len(kN))
	}
}

// kthEval wraps an evaluator and checks, call by call, the walk's
// contract with it: the τ of each Compare is the k-th smallest exact
// distance the walk has seen (the layer-0 entry's, which the descent
// found with Distance, and every unpruned Compare's), +Inf until there
// are k of them. It also keeps each exact distance by id.
type kthEval struct {
	core.ResettableEvaluator
	t              *testing.T
	k              int
	entryID        int
	entryDist      float32
	seen           []float32 // unpruned Compare distances, in call order
	exact          map[int]float32
	finite, pruned int
}

func (e *kthEval) Reset(q []float32) error {
	e.entryDist, e.seen = float32(math.Inf(1)), e.seen[:0]
	clear(e.exact)
	return e.ResettableEvaluator.Reset(q)
}

// Distance tracks the descent the way the walk does: the entry of layer 0
// is the first node at the smallest distance.
func (e *kthEval) Distance(id int) float32 {
	d := e.ResettableEvaluator.Distance(id)
	if d < e.entryDist {
		e.entryID, e.entryDist = id, d
	}
	return d
}

func (e *kthEval) Compare(id int, tau float32) (float32, bool) {
	want := float32(math.Inf(1))
	if len(e.seen)+1 >= e.k {
		sorted := append([]float32{e.entryDist}, e.seen...)
		slices.Sort(sorted)
		want = sorted[e.k-1]
	}
	if math.Float32bits(tau) != math.Float32bits(want) {
		e.t.Fatalf("Compare after %d exact distances got τ %v, want the k-th %v", len(e.seen)+1, tau, want)
	}
	if !math.IsInf(float64(tau), 1) {
		e.finite++
	}
	d, pruned := e.ResettableEvaluator.Compare(id, tau)
	if pruned {
		e.pruned++
	} else {
		e.seen = append(e.seen, d)
		e.exact[id] = d
	}
	return d, pruned
}

// TestSearchEvalPrunesAgainstKth pins HNSW++'s layer-0 walk: Compare
// prunes against the k-th exact distance, not the beam's ef-th, and the
// answer holds exact distances only, never a pruned estimate.
func TestSearchEvalPrunesAgainstKth(t *testing.T) {
	ds, _, idx := getFixtures(t)
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 4, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	const k, ef = 10, 100
	ev := &kthEval{ResettableEvaluator: res.NewEvaluator(), t: t, k: k, exact: map[int]float32{}}
	for qi, q := range ds.Queries {
		if err := ev.Reset(q); err != nil {
			t.Fatal(err)
		}
		hits, err := idx.SearchEval(ev, k, ef, res.Size(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ev.exact[ev.entryID] = ev.entryDist
		if len(hits) != k {
			t.Fatalf("query %d: %d hits, want %d", qi, len(hits), k)
		}
		for _, h := range hits {
			if d, ok := ev.exact[h.ID]; !ok || math.Float32bits(d) != math.Float32bits(h.Dist) {
				t.Fatalf("query %d: hit %d at %v, exact distance %v (known %v)", qi, h.ID, h.Dist, d, ok)
			}
		}
	}
	if ev.finite == 0 || ev.pruned == 0 {
		t.Fatalf("walk never pruned: %d finite τ, %d pruned", ev.finite, ev.pruned)
	}
}

// ratioEval records, for every pruned Compare, the returned value over the
// exact distance.
type ratioEval struct {
	core.ResettableEvaluator
	sum float64
	n   int
}

func (e *ratioEval) Compare(id int, tau float32) (float32, bool) {
	d, pruned := e.ResettableEvaluator.Compare(id, tau)
	if pruned {
		if exact := e.ResettableEvaluator.Distance(id); exact > 0 {
			e.sum += float64(d / exact)
			e.n++
		}
	}
	return d, pruned
}

// TestPrunedDistanceIsAnEstimate: the walk keys its beam by the value a
// pruned Compare returns, so every comparator must return an estimate of
// the full distance there, not a bound or a prefix sum of it.
func TestPrunedDistanceIsAnEstimate(t *testing.T) {
	ds, _, idx := getFixtures(t)
	ads, err := adsampling.New(ds.Matrix(), adsampling.Config{Seed: 3, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 4, InitD: 16, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}
	pca, err := ddc.NewPCA(ds.Matrix(), ds.Train, ddc.PCAConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, dco := range []core.DCO{res, pca, ads} {
		ev := &ratioEval{ResettableEvaluator: dco.NewEvaluator()}
		for _, q := range ds.Queries {
			if err := ev.Reset(q); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.SearchEval(ev, 10, 100, dco.Size(), nil); err != nil {
				t.Fatal(err)
			}
		}
		if ev.n == 0 {
			t.Fatalf("%s: nothing pruned", dco.Name())
		}
		mean := ev.sum / float64(ev.n)
		t.Logf("%s: mean pruned/exact %.3f over %d pruned candidates", dco.Name(), mean, ev.n)
		if mean < 0.8 || mean > 1.25 {
			t.Errorf("%s: mean pruned/exact distance %.3f outside [0.8, 1.25]", dco.Name(), mean)
		}
	}
}

// BenchmarkBuild shows how construction scales with Config.Workers.
func BenchmarkBuild(b *testing.B) {
	ds, _, _ := getFixtures(b)
	const n = 2000
	mat := store.MustFromRows(ds.Data[:n])
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(mat, Config{M: 16, EfConstruction: 200, Seed: 5, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(n-1)), "ns/insert")
		})
	}
}

// entryEval records the layer-0 entry the descent settles on: the first
// node at the smallest Distance.
type entryEval struct {
	core.ResettableEvaluator
	entry     int
	entryDist float32
}

func (e *entryEval) Reset(q []float32) error {
	e.entryDist = float32(math.Inf(1))
	return e.ResettableEvaluator.Reset(q)
}

func (e *entryEval) Distance(id int) float32 {
	d := e.ResettableEvaluator.Distance(id)
	if d < e.entryDist {
		e.entry, e.entryDist = id, d
	}
	return d
}

// TestSearchMaskedHidesRows: a masked walk never answers a masked row,
// and since masked nodes still steer the beam it finds the unmasked
// nearest neighbours past them — here the mask hides each query's ten
// true nearest rows and then half, or nine in ten, of all rows.
func TestSearchMaskedHidesRows(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	exact, _ := core.NewExact(ds.Matrix())
	res, err := ddc.NewRes(ds.Matrix(), ddc.ResConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k, ef = 10, 100
	for _, every := range []int{2, 10} {
		mask := core.NewRowMask(idx.Len())
		var live [][]float32
		var liveID []int
		for id, row := range ds.Data {
			if id%every != 0 {
				mask.Set(id)
			} else {
				live = append(live, row)
				liveID = append(liveID, id)
			}
		}
		for _, ids := range gt {
			for _, id := range ids {
				mask.Set(id)
			}
		}
		liveGT, err := dataset.BruteForceKNN(live, ds.Queries, k+10, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, dco := range []core.DCO{exact, res} {
			ev := dco.NewEvaluator()
			hits := 0
			for qi, q := range ds.Queries {
				if err := ev.Reset(q); err != nil {
					t.Fatal(err)
				}
				got, err := idx.SearchMasked(ev, k, ef, idx.Len(), mask, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k {
					t.Fatalf("1 in %d live, %s, q%d: %d hits, want %d", every, dco.Name(), qi, len(got), k)
				}
				truth := map[int]bool{}
				for _, i := range liveGT[qi] {
					if !mask.Has(liveID[i]) && len(truth) < k {
						truth[liveID[i]] = true
					}
				}
				for _, it := range got {
					if mask.Has(it.ID) {
						t.Fatalf("1 in %d live, %s, q%d: masked id %d returned", every, dco.Name(), qi, it.ID)
					}
					if truth[it.ID] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(k*len(ds.Queries))
			t.Logf("1 in %d live, %s: recall@%d %.3f against the unmasked rows", every, dco.Name(), k, recall)
			if recall < 0.9 {
				t.Errorf("1 in %d live, %s: recall@%d %.3f against the unmasked rows, want >= 0.9", every, dco.Name(), k, recall)
			}
		}
	}
}

// TestSearchMaskedEntry: a masked layer-0 entry is walked from but never
// answered. A beam as wide as the graph answers every reachable node, so
// masking the entry must drop exactly it; a one-node graph whose only node
// is masked answers nothing.
func TestSearchMaskedEntry(t *testing.T) {
	ds, _, _ := getFixtures(t)
	rows := store.MustFromRows(ds.Data[:300])
	idx, err := Build(rows, Config{M: 8, EfConstruction: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dco, _ := core.NewExact(rows)
	ev := &entryEval{ResettableEvaluator: dco.NewEvaluator()}
	n := idx.Len()
	for qi, q := range ds.Queries[:5] {
		if err := ev.Reset(q); err != nil {
			t.Fatal(err)
		}
		all, err := idx.SearchMasked(ev, n, n, n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mask := core.NewRowMask(n)
		mask.Set(ev.entry)
		if err := ev.Reset(q); err != nil {
			t.Fatal(err)
		}
		got, err := idx.SearchMasked(ev, n, n, n, mask, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(slices.Clone(all), func(it Result) bool { return it.ID == ev.entry })
		if len(want) != len(all)-1 || !slices.Equal(got, want) {
			t.Fatalf("q%d: masking entry %d answered %d of the %d unmasked hits, want all but the entry", qi, ev.entry, len(got), len(all))
		}
	}
	one, err := Build(store.MustFromRows(ds.Data[:1]), Config{M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, _ := core.NewExact(store.MustFromRows(ds.Data[:1]))
	sev := single.NewEvaluator()
	if err := sev.Reset(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	mask := core.NewRowMask(1)
	mask.Set(0)
	if got, err := one.SearchMasked(sev, 1, 1, 1, mask, nil); err != nil || len(got) != 0 {
		t.Fatalf("masked one-node graph answered %v, %v; want nothing", got, err)
	}
}
