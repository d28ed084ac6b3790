package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"resinfer/internal/pca"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

func toy(r *rand.Rand, n, d int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
		data[i] = row
	}
	return data
}

func toyMat(r *rand.Rand, n, d int) *store.Matrix {
	return store.MustFromRows(toy(r, n, d))
}

func TestNewExactErrors(t *testing.T) {
	if _, err := NewExact(nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := store.FromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestExactDistanceMatchesL2(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := toy(r, 50, 8)
	dco, err := NewExact(store.MustFromRows(data))
	if err != nil {
		t.Fatal(err)
	}
	q := toy(r, 1, 8)[0]
	ev := dco.NewEvaluator()
	if err := ev.Reset(q); err != nil {
		t.Fatal(err)
	}
	for id := range data {
		if got, want := ev.Distance(id), vec.L2Sq(q, data[id]); got != want {
			t.Fatalf("Distance(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestExactCompareNeverPrunes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := toy(r, 20, 4)
	dco, _ := NewExact(store.MustFromRows(data))
	ev := dco.NewEvaluator()
	if err := ev.Reset(data[0]); err != nil {
		t.Fatal(err)
	}
	for id := range data {
		d, pruned := ev.Compare(id, 0.001)
		if pruned {
			t.Fatal("exact DCO must never prune")
		}
		if d != vec.L2Sq(data[0], data[id]) {
			t.Fatal("exact Compare distance mismatch")
		}
	}
	st := ev.Stats()
	if st.Comparisons != 20 || st.Pruned != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.DimsScanned != 20*4 {
		t.Fatalf("DimsScanned = %d", st.DimsScanned)
	}
}

func TestExactQueryDimMismatch(t *testing.T) {
	dco, _ := NewExact(store.MustFromRows([][]float32{{1, 2}}))
	if err := dco.NewEvaluator().Reset([]float32{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestStatsAddAndRates(t *testing.T) {
	var a Stats
	a.Add(Stats{Comparisons: 10, Pruned: 6, DimsScanned: 100, ExactDistances: 4})
	a.Add(Stats{Comparisons: 10, Pruned: 2, DimsScanned: 60, ExactDistances: 8})
	if a.Comparisons != 20 || a.Pruned != 8 {
		t.Fatalf("Add: %+v", a)
	}
	if got := a.PrunedRate(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("PrunedRate = %v", got)
	}
	if got := a.ScanRate(10); math.Abs(got-160.0/200.0) > 1e-12 {
		t.Fatalf("ScanRate = %v", got)
	}
	var zero Stats
	if zero.PrunedRate() != 0 || zero.ScanRate(8) != 0 {
		t.Fatal("zero stats rates must be 0")
	}
}

// Property: exact DCO's metadata is consistent with its input.
func TestExactMetadata(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, d := 1+r.Intn(30), 1+r.Intn(16)
		data := toyMat(r, n, d)
		dco, err := NewExact(data)
		if err != nil {
			return false
		}
		return dco.Size() == n && dco.Dim() == d && dco.ExtraBytes() == 0 &&
			dco.Name() == "exact" && dco.Data().Rows() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInfThreshold(t *testing.T) {
	if !math.IsInf(float64(InfThreshold), 1) {
		t.Fatal("InfThreshold must be +Inf")
	}
}

// TestExactPruneTwoDepths holds exact's two bounds to the distances
// Compare computes, on 160-d rows in no basis and in their PCA basis: rows
// of decaying variance in every direction, which both bounds rule out, and
// rows in a 100-dimensional affine subspace, on which the bound at DeepDim
// is the distance itself and only the margin keeps a tie. For queries equal
// to a row and off the rows, at thresholds on every side of rows'
// distances and at quantiles of them, Prune hands back in order every id
// it keeps, rules out only ids whose distance exceeds the threshold, and
// counts each as one pruned comparison of PrefixDim dimensions or, ruled
// out by the second bound, DeepDim; the second bound rules out rows on
// every set.
func TestExactPruneTwoDepths(t *testing.T) {
	const n, d = 300, 160
	r := rand.New(rand.NewSource(11))
	dirs := toy(r, d, d)
	rowsOf := func(rank int) *store.Matrix {
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = make([]float32, d)
			for k := range rank {
				z := float32(r.NormFloat64() * 4 / float64(k+1))
				for j, v := range dirs[k] {
					rows[i][j] += z * v
				}
			}
		}
		return store.MustFromRows(rows)
	}
	for _, set := range []struct {
		name string
		rows *store.Matrix
	}{{"full rank", rowsOf(d)}, {"rank 100", rowsOf(100)}} {
		model, err := pca.Train(pca.Config{Seed: 1}, set.rows)
		if err != nil {
			t.Fatal(err)
		}
		rebased, err := model.ProjectMatrix(set.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := NewExactIn(set.rows, nil, model)
		if err != nil {
			t.Fatal(err)
		}
		inBasis, err := NewExactIn(rebased, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		queries := [][]float32{set.rows.Row(3), set.rows.Row(n - 1)}
		for _, q := range toy(r, 3, d) {
			vec.Scale(q, 2)
			queries = append(queries, q)
		}
		for _, e := range []struct {
			name string
			dco  *Exact
		}{{"raw", raw}, {"rebased", inBasis}} {
			name := set.name + " " + e.name
			ev, ref := e.dco.NewEvaluator(), e.dco.NewEvaluator()
			var deep int64
			for qi, q := range queries {
				if err := ref.Reset(q); err != nil {
					t.Fatal(err)
				}
				dist := make([]float32, n)
				for id := range dist {
					dist[id] = ref.Distance(id)
				}
				sorted := slices.Clone(dist)
				slices.Sort(sorted)
				taus := []float32{sorted[1], sorted[10], sorted[n/2]}
				for _, v := range sorted[:40] {
					taus = append(taus, math.Nextafter32(v, 0), v, math.Nextafter32(v, float32(math.Inf(1))))
				}
				for _, tau := range taus {
					if err := ev.Reset(q); err != nil {
						t.Fatal(err)
					}
					var out int64
					for lo := 0; lo < n; lo += PruneBlock {
						blk := make([]int32, 0, PruneBlock)
						for id := lo; id < min(lo+PruneBlock, n); id++ {
							blk = append(blk, int32(id))
						}
						kept := ev.Prune(blk, tau, make([]int32, 0, PruneBlock))
						i := 0
						for _, id := range blk {
							if i < len(kept) && kept[i] == id {
								i++
								continue
							}
							out++
							if !(dist[id] > tau) {
								t.Fatalf("%s q%d tau %v: ruled out id %d at distance %v", name, qi, tau, id, dist[id])
							}
						}
						if i != len(kept) {
							t.Fatalf("%s q%d tau %v: kept %v of block %v, not in order", name, qi, tau, kept, blk)
						}
					}
					st := ev.Stats()
					extra := st.DimsScanned - PrefixDim*out
					if st.Comparisons != out || st.Pruned != out || st.ExactDistances != 0 || extra%PrefixDim != 0 || extra < 0 || extra > PrefixDim*out {
						t.Fatalf("%s q%d tau %v: stats %+v for %d ruled out", name, qi, tau, *st, out)
					}
					deep += extra / PrefixDim
				}
			}
			if deep == 0 {
				t.Errorf("%s: the bound at depth %d ruled out no row", name, DeepDim)
			}
		}
	}
}
