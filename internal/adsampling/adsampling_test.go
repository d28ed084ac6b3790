package adsampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"resinfer/internal/core"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

func gauss(r *rand.Rand, n, d int) [][]float32 {
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

// primed Resets ev to q. Tests build one evaluator per comparator and
// re-prime it per query, the way Index.walk does in production.
func primed(t testing.TB, ev core.ResettableEvaluator, q []float32) core.ResettableEvaluator {
	t.Helper()
	if err := ev.Reset(q); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := store.FromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestExactDistancePreserved(t *testing.T) {
	// Rotation is an isometry, so Distance must equal the original-space
	// distance within float tolerance.
	r := rand.New(rand.NewSource(1))
	data := gauss(r, 100, 48)
	dco, err := New(store.MustFromRows(data), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := gauss(r, 1, 48)[0]
	ev := primed(t, dco.NewEvaluator(), q)
	for id := 0; id < 20; id++ {
		got := float64(ev.Distance(id))
		want := vec.L2Sq64(q, data[id])
		if math.Abs(got-want) > 1e-2*(1+want) {
			t.Fatalf("Distance(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestCompareInfTauIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := gauss(r, 30, 16)
	dco, _ := New(store.MustFromRows(data), Config{Seed: 3, DeltaD: 4})
	ev := primed(t, dco.NewEvaluator(), data[0])
	d, pruned := ev.Compare(5, float32(math.Inf(1)))
	if pruned {
		t.Fatal("must not prune against +Inf threshold")
	}
	want := vec.L2Sq64(data[0], data[5])
	if math.Abs(float64(d)-want) > 1e-2*(1+want) {
		t.Fatalf("inf-tau distance %v, want %v", d, want)
	}
}

// Soundness: when Compare declines to prune, the returned distance must be
// exact; when it prunes, the true distance must (almost always) exceed tau.
func TestCompareSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := gauss(r, 400, 64)
	dco, err := New(store.MustFromRows(data), Config{Seed: 5, DeltaD: 8, Epsilon0: 2.1})
	if err != nil {
		t.Fatal(err)
	}
	falsePrunes, prunes := 0, 0
	ev := dco.NewEvaluator()
	for qi := 0; qi < 20; qi++ {
		q := gauss(r, 1, 64)[0]
		primed(t, ev, q)
		for id := 0; id < 400; id++ {
			exact := vec.L2Sq(q, data[id])
			tau := exact * (0.5 + r.Float32()) // thresholds around the true distance
			got, pruned := ev.Compare(id, tau)
			if pruned {
				prunes++
				if exact <= tau {
					falsePrunes++
				}
			} else if math.Abs(float64(got-exact)) > 1e-2*(1+float64(exact)) {
				t.Fatalf("non-pruned distance %v, want exact %v", got, exact)
			}
		}
	}
	if prunes == 0 {
		t.Fatal("test produced no prunes; thresholds mis-chosen")
	}
	// The JL bound makes false prunes very unlikely at eps0=2.1.
	if rate := float64(falsePrunes) / float64(prunes); rate > 0.01 {
		t.Fatalf("false prune rate %v too high (%d/%d)", rate, falsePrunes, prunes)
	}
}

func TestPruningSavesDimensions(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := gauss(r, 300, 128)
	dco, _ := New(store.MustFromRows(data), Config{Seed: 9, DeltaD: 16})
	q := gauss(r, 1, 128)[0]
	ev := primed(t, dco.NewEvaluator(), q)
	// Tiny tau forces pruning almost immediately for every point.
	for id := range data {
		ev.Compare(id, 0.01)
	}
	st := ev.Stats()
	if st.Pruned < int64(len(data))*9/10 {
		t.Fatalf("expected heavy pruning, got %d/%d", st.Pruned, st.Comparisons)
	}
	if rate := st.ScanRate(128); rate > 0.5 {
		t.Fatalf("scan rate %v should be far below 1 under heavy pruning", rate)
	}
}

func TestNoPruneScanEqualsFull(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := gauss(r, 50, 32)
	dco, _ := New(store.MustFromRows(data), Config{Seed: 2, DeltaD: 8})
	q := gauss(r, 1, 32)[0]
	ev := primed(t, dco.NewEvaluator(), q)
	// Huge tau: nothing prunes, everything scans fully.
	for id := range data {
		_, pruned := ev.Compare(id, 1e30)
		if pruned {
			t.Fatal("nothing should prune under huge tau")
		}
	}
	st := ev.Stats()
	if st.DimsScanned != int64(50*32) {
		t.Fatalf("DimsScanned = %d, want %d", st.DimsScanned, 50*32)
	}
}

// Property: the cached test factors are monotonically increasing in d and
// approach (slightly exceed) d/D from above.
func TestFactorsShape(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	data := gauss(r, 10, 40)
	dco, _ := New(store.MustFromRows(data), Config{Seed: 1})
	f := func(ku uint8) bool {
		k := 1 + int(ku)%39
		if dco.factors[k] >= dco.factors[k+1] {
			return false
		}
		return float64(dco.factors[k]) > float64(k)/40.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dco, _ := New(store.MustFromRows(gauss(r, 10, 8)), Config{})
	if err := dco.NewEvaluator().Reset(make([]float32, 4)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestExtraBytes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	dco, _ := New(store.MustFromRows(gauss(r, 10, 16)), Config{})
	if dco.ExtraBytes() != 16*16*4 { // D² float32, as the paper counts it

		t.Fatalf("ExtraBytes = %d", dco.ExtraBytes())
	}
}

func TestNewWithRotationValidation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	data := gauss(r, 10, 8)
	dco, _ := New(store.MustFromRows(data), Config{Seed: 4})
	re, err := NewWithRotation(dco.rotated, dco.model.Rotation, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Dim() != 8 || re.Size() != 10 {
		t.Fatal("metadata mismatch")
	}
	if _, err := NewWithRotation(nil, dco.model.Rotation, Config{}); err == nil {
		t.Fatal("expected empty error")
	}
}
