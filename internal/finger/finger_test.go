package finger

import (
	"math"
	"slices"
	"sync"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/hnsw"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixGT   [][]int
	fixIdx  *hnsw.Index
	fixErr  error
)

func getFixtures(t testing.TB) (*dataset.Dataset, [][]int, *hnsw.Index) {
	fixOnce.Do(func() {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "finger-test", N: 4000, Dim: 96, Queries: 25, TrainQueries: 10,
			VE32: 0.8, Seed: 31,
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
		idx, err := hnsw.Build(ds.Matrix(), hnsw.Config{M: 16, EfConstruction: 200, Seed: 3})
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

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Fatal("expected nil-index error")
	}
	ds, _, idx := getFixtures(t)
	if _, err := Build(idx, store.MustFromRows(ds.Data[:10]), Config{}); err == nil {
		t.Fatal("expected rows-mismatch error")
	}
}

func TestEdgeMetadataGeometry(t *testing.T) {
	ds, _, idx := getFixtures(t)
	f, err := Build(idx, fixDS.Matrix(), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data := ds.Data
	// For a sample of edges: dcNormSq matches, residual decomposition
	// satisfies Pythagoras: ‖d−c‖² = t_d²‖c‖² + ‖d_res‖².
	checked := 0
	for n := 0; n < 200 && checked < 100; n++ {
		nbs := idx.Neighbors(int32(n), 0)
		for i, nb := range nbs {
			m := f.edges[n][i]
			want := vec.L2Sq(data[n], data[nb])
			if math.Abs(float64(m.dcNormSq-want)) > 1e-2*(1+float64(want)) {
				t.Fatalf("edge (%d,%d): dcNormSq %v want %v", n, nb, m.dcNormSq, want)
			}
			lhs := float64(m.dcNormSq)
			rhs := float64(m.tD)*float64(m.tD)*float64(f.normSq[n]) + float64(m.resNormSq)
			if math.Abs(lhs-rhs) > 1e-2*(1+lhs) {
				t.Fatalf("edge (%d,%d): Pythagoras violated: %v vs %v", n, nb, lhs, rhs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no edges checked")
	}
}

func TestSearchRecallCloseToExactHNSW(t *testing.T) {
	ds, gt, idx := getFixtures(t)
	f, err := Build(idx, fixDS.Matrix(), Config{Seed: 7, ErrorFactor: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	// Exact HNSW baseline at the same ef.
	exact, _ := core.NewExact(ds.Matrix())
	base := make([][]int, len(ds.Queries))
	fing := make([][]int, len(ds.Queries))
	var agg core.Stats
	ev := exact.NewEvaluator() // one evaluator, Reset per query, as Index.walk does
	for qi, q := range ds.Queries {
		if err := ev.Reset(q); err != nil {
			t.Fatal(err)
		}
		items, err := idx.SearchEval(ev, 10, 50, exact.Size(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			base[qi] = append(base[qi], it.ID)
		}
		fitems, st, err := f.Search(q, 10, 50)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
		for _, it := range fitems {
			fing[qi] = append(fing[qi], it.ID)
		}
	}
	rBase := dataset.Recall(base, gt, 10)
	rFing := dataset.Recall(fing, gt, 10)
	if rFing < rBase-0.08 {
		t.Fatalf("FINGER recall %v too far below exact HNSW %v", rFing, rBase)
	}
	if agg.Pruned == 0 {
		t.Fatal("FINGER never pruned")
	}
	// The point of FINGER: most neighbor evaluations avoid an exact scan.
	if pr := agg.PrunedRate(); pr < 0.2 {
		t.Fatalf("FINGER pruned rate %v too low", pr)
	}
}

func TestSearchResultsSortedAndExactDistances(t *testing.T) {
	ds, _, idx := getFixtures(t)
	f, _ := Build(idx, fixDS.Matrix(), Config{Seed: 7})
	items, _, err := f.Search(ds.Queries[0], 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 {
		t.Fatalf("len = %d", len(items))
	}
	for i, it := range items {
		want := vec.L2Sq(ds.Queries[0], ds.Data[it.ID])
		if it.Dist != want {
			t.Fatalf("result %d distance %v not exact (%v)", i, it.Dist, want)
		}
		if i > 0 && items[i-1].Dist > it.Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchErrors(t *testing.T) {
	_, _, idx := getFixtures(t)
	f, _ := Build(idx, fixDS.Matrix(), Config{Seed: 7})
	if _, _, err := f.Search(fixDS.Queries[0], 0, 10); err == nil {
		t.Fatal("expected k error")
	}
}

// A beam never holds more than n nodes, so ef past n is ef = n.
func TestSearchEfClampedToLen(t *testing.T) {
	_, _, idx := getFixtures(t)
	f, _ := Build(idx, fixDS.Matrix(), Config{Seed: 7})
	atN, _, err := f.Search(fixDS.Queries[0], 10, idx.Len())
	if err != nil {
		t.Fatal(err)
	}
	atMax, _, err := f.Search(fixDS.Queries[0], 10, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(atMax, atN) {
		t.Fatalf("ef = MaxInt answered %v, ef = n answered %v", atMax, atN)
	}
}

func TestExtraBytesScalesWithIndex(t *testing.T) {
	_, _, idx := getFixtures(t)
	f, _ := Build(idx, fixDS.Matrix(), Config{Seed: 7})
	eb := f.ExtraBytes()
	if eb <= 0 {
		t.Fatal("ExtraBytes must be positive")
	}
	// FINGER must be hungrier than DDCres-style storage (norms + rotation):
	// per-edge metadata alone dwarfs a D² rotation at this scale.
	ddcLike := int64(96*96*8) + int64(idx.Len())*4
	if eb < ddcLike {
		t.Fatalf("FINGER bytes %d unexpectedly below DDC-like %d", eb, ddcLike)
	}
}

func TestConfigDefaults(t *testing.T) {
	_, _, idx := getFixtures(t)
	f, err := Build(idx, fixDS.Matrix(), Config{L: 999, Seed: 1}) // clamps to 64
	if err != nil {
		t.Fatal(err)
	}
	if f.l != 64 {
		t.Fatalf("L = %d, want 64", f.l)
	}
	if f.errFactor != 1.0 {
		t.Fatalf("ErrorFactor default = %v", f.errFactor)
	}
}
