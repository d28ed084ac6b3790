package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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
