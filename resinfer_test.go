package resinfer

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"resinfer/internal/dataset"
)

var (
	apiOnce sync.Once
	apiDS   *dataset.Dataset
	apiGT   [][]int
	apiErr  error
)

func apiFixtures(t testing.TB) (*dataset.Dataset, [][]int) {
	apiOnce.Do(func() {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "api-test", N: 2500, Dim: 64, Queries: 20, TrainQueries: 60,
			VE32: 0.8, Seed: 77,
		})
		if err != nil {
			apiErr = err
			return
		}
		gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
		if err != nil {
			apiErr = err
			return
		}
		apiDS, apiGT = ds, gt
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiDS, apiGT
}

func recallOf(t testing.TB, ix *Index, queries [][]float32, gt [][]int, mode Mode, budget int) float64 {
	results := make([][]int, len(queries))
	for qi, q := range queries {
		ns, err := ix.Search(q, 10, mode, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			results[qi] = append(results[qi], n.ID)
		}
	}
	return dataset.Recall(results, gt, 10)
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, HNSW, nil); err == nil {
		t.Fatal("expected empty error")
	}
	ds, _ := apiFixtures(t)
	if _, err := New(ds.Data[:50], IndexKind("btree"), nil); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestHNSWLifecycle(t *testing.T) {
	ds, gt := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != HNSW || ix.Len() != len(ds.Data) || ix.Dim() != 64 {
		t.Fatal("metadata")
	}
	if !ix.Enabled(Exact) {
		t.Fatal("Exact must be enabled by default")
	}
	if r := recallOf(t, ix, ds.Queries, gt, Exact, 80); r < 0.95 {
		t.Fatalf("exact recall = %v", r)
	}
	// ADSampling and DDCRes enable without training queries.
	if err := ix.Enable(ADSampling, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{ADSampling, DDCRes} {
		if r := recallOf(t, ix, ds.Queries, gt, m, 80); r < 0.9 {
			t.Fatalf("%s recall = %v", m, r)
		}
	}
	// Learned modes require training queries.
	if err := ix.Enable(DDCPCA, nil); err == nil {
		t.Fatal("DDCPCA via Enable must error")
	}
	if err := ix.EnableWithTraining(DDCPCA, ds.Train, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableWithTraining(DDCOPQ, ds.Train, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{DDCPCA, DDCOPQ} {
		if r := recallOf(t, ix, ds.Queries, gt, m, 80); r < 0.85 {
			t.Fatalf("%s recall = %v", m, r)
		}
	}
	// Name order, every call: /healthz and the metric registration list it.
	if want := []Mode{ADSampling, DDCOPQ, DDCPCA, DDCRes, Exact}; !slices.Equal(ix.Modes(), want) {
		t.Fatalf("modes = %v, want %v", ix.Modes(), want)
	}
}

func TestIVFLifecycle(t *testing.T) {
	ds, gt := apiFixtures(t)
	ix, err := New(ds.Data, IVF, &Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	exact := recallOf(t, ix, ds.Queries, gt, Exact, 16)
	res := recallOf(t, ix, ds.Queries, gt, DDCRes, 16)
	if res < exact-0.03 {
		t.Fatalf("DDCRes recall %v below exact %v at same nprobe", res, exact)
	}
}

func TestSearchErrors(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:200], HNSW, &Options{Seed: 3, HNSWEfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(ds.Queries[0][:10], 5, Exact, 20); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := ix.Search(ds.Queries[0], 5, DDCRes, 20); err == nil {
		t.Fatal("expected not-enabled error")
	}
	if err := ix.Enable(Mode("wat"), nil); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if err := ix.EnableWithTraining(Mode("wat"), nil, nil); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if err := ix.EnableWithTraining(DDCOPQ, nil, nil); err == nil {
		t.Fatal("expected missing-training error")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Exact, ADSampling, DDCRes, DDCPCA, DDCOPQ} {
		if got, err := ParseMode(string(m)); err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %q, %v", m, got, err)
		}
	}
	for _, s := range []string{"wat", "", "EXACT"} {
		if _, err := ParseMode(s); err == nil || !strings.Contains(err.Error(), strconv.Quote(s)) {
			t.Fatalf("ParseMode(%q): error %v does not name the mode", s, err)
		}
	}
}

func TestSearchStats(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.SearchInto(nil, ds.Queries[0], 10, DDCRes, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comparisons == 0 {
		t.Fatal("stats not collected")
	}
	if st.PrunedRate < 0 || st.PrunedRate > 1 {
		t.Fatalf("pruned rate %v out of range", st.PrunedRate)
	}
}

func TestEnableIdempotent(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:300], HNSW, &Options{Seed: 5, HNSWEfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(Exact, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSearch(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				q := ds.Queries[rng.Intn(len(ds.Queries))]
				mode := Exact
				if i%2 == 0 {
					mode = DDCRes
				}
				if _, err := ix.Search(q, 10, mode, 40); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFlatLifecycle(t *testing.T) {
	ds, gt := apiFixtures(t)
	ix, err := New(ds.Data, Flat, &Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != Flat {
		t.Fatal("kind")
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	// Flat + exact = ground truth exactly.
	if r := recallOf(t, ix, ds.Queries, gt, Exact, 0); r != 1 {
		t.Fatalf("flat exact recall = %v, want 1", r)
	}
	if r := recallOf(t, ix, ds.Queries, gt, DDCRes, 0); r < 0.99 {
		t.Fatalf("flat DDCRes recall = %v", r)
	}
}

func TestFlatSaveLoad(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:400], Flat, &Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0]
	a, _ := ix.Search(q, 5, Exact, 0)
	b, _ := loaded.Search(q, 5, Exact, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("flat round trip mismatch")
		}
	}
}
