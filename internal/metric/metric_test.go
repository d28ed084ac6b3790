package metric

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"resinfer/internal/vec"
)

func randRows(r *rand.Rand, n, d int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(r.NormFloat64())
		}
		rows[i] = row
	}
	return rows
}

// normalizeRows is the data side of the cosine reduction as the index
// applies it: every row through NormalizeForCosineInto, into a fresh copy.
func normalizeRows(rows [][]float32) ([][]float32, error) {
	out := make([][]float32, len(rows))
	for i, row := range rows {
		var err error
		if out[i], err = NormalizeForCosineInto(make([]float32, len(row)), row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// augmentRows is the data side of the inner-product reduction as the index
// applies it: R² is the largest squared norm, every row goes through DataInto.
func augmentRows(t testing.TB, rows [][]float32) (*IPTransform, [][]float32) {
	tr := &IPTransform{Dim: len(rows[0])}
	for _, row := range rows {
		tr.MaxSq = max(tr.MaxSq, float64(vec.NormSq(row)))
	}
	out := make([][]float32, len(rows))
	for i, row := range rows {
		var err error
		if out[i], err = tr.DataInto(make([]float32, tr.Dim+1), row); err != nil {
			t.Fatal(err)
		}
	}
	return tr, out
}

func TestNormalizeForCosine(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rows := randRows(r, 50, 8)
	first := slices.Clone(rows[0])
	norm, err := normalizeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range norm {
		if math.Abs(float64(vec.Norm(row))-1) > 1e-5 {
			t.Fatalf("row %d not unit norm", i)
		}
	}
	if !vec.Equal(rows[0], first) {
		t.Fatal("input modified")
	}
	// In place (dst is q) gives the same bits.
	if _, err := NormalizeForCosineInto(rows[0], rows[0]); err != nil || !vec.Equal(rows[0], norm[0]) {
		t.Fatalf("in-place normalization differs (err %v)", err)
	}
	if _, err := NormalizeForCosineInto(make([]float32, 2), []float32{0, 0}); err == nil {
		t.Fatal("expected zero-vector error")
	}
	if _, err := NormalizeForCosineInto(make([]float32, 3), []float32{1, 2}); err == nil {
		t.Fatal("expected scratch-length error")
	}
}

// Property: Euclidean KNN order on normalized vectors equals descending
// cosine-similarity order.
func TestCosineOrderEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 30, 6)
		q := randRows(r, 1, 6)[0]
		norm, err := normalizeRows(rows)
		if err != nil {
			return true // zero vectors: skip
		}
		nq, err := normalizeRows([][]float32{q})
		if err != nil {
			return true
		}
		type pair struct {
			id  int
			d   float64
			cos float64
		}
		ps := make([]pair, len(rows))
		for i := range rows {
			ps[i] = pair{
				id:  i,
				d:   vec.L2Sq64(nq[0], norm[i]),
				cos: vec.Dot64(nq[0], norm[i]),
			}
		}
		byDist := append([]pair(nil), ps...)
		sort.Slice(byDist, func(a, b int) bool { return byDist[a].d < byDist[b].d })
		byCos := append([]pair(nil), ps...)
		sort.Slice(byCos, func(a, b int) bool { return byCos[a].cos > byCos[b].cos })
		for i := range byDist {
			if byDist[i].id != byCos[i].id {
				// Ties can legitimately reorder; accept when values equal.
				if math.Abs(byDist[i].cos-byCos[i].cos) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCosineFromSqDist(t *testing.T) {
	// Identical unit vectors: d=0 → cos=1. Opposite: d=4 → cos=-1.
	if CosineFromSqDist(0) != 1 {
		t.Fatal("cos(0)")
	}
	if CosineFromSqDist(4) != -1 {
		t.Fatal("cos(4)")
	}
	if CosineFromSqDist(2) != 0 {
		t.Fatal("cos(2)")
	}
}

func TestIPTransformErrors(t *testing.T) {
	tr := &IPTransform{Dim: 2, MaxSq: 5}
	if _, err := tr.DataInto(make([]float32, 3), []float32{3}); err == nil {
		t.Fatal("expected ragged-row error")
	}
	if _, err := tr.DataInto(make([]float32, 2), []float32{1, 2}); err == nil {
		t.Fatal("expected data scratch-length error")
	}
	if _, err := tr.QueryInto(make([]float32, 2), []float32{1, 2}); err == nil {
		t.Fatal("expected query scratch-length error")
	}
}

func TestIPTransformAugmentedNorms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := randRows(r, 40, 5)
	tr, aug := augmentRows(t, rows)
	// Every augmented row has norm exactly R.
	for i, row := range aug {
		if len(row) != 6 {
			t.Fatal("augmented dim")
		}
		if math.Abs(float64(vec.NormSq(row))-tr.MaxSq) > 1e-3*(1+tr.MaxSq) {
			t.Fatalf("row %d: augmented norm² %v, want %v", i, vec.NormSq(row), tr.MaxSq)
		}
	}
}

// Property: Euclidean order on augmented vectors equals descending
// inner-product order.
func TestIPOrderEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := randRows(r, 25, 4)
		q := randRows(r, 1, 4)[0]
		tr, aug := augmentRows(t, rows)
		aq, err := tr.QueryInto(make([]float32, tr.Dim+1), q)
		if err != nil {
			return false
		}
		type pair struct {
			id int
			d  float64
			ip float64
		}
		ps := make([]pair, len(rows))
		for i := range rows {
			ps[i] = pair{i, vec.L2Sq64(aq, aug[i]), vec.Dot64(q, rows[i])}
		}
		byDist := append([]pair(nil), ps...)
		sort.Slice(byDist, func(a, b int) bool { return byDist[a].d < byDist[b].d })
		byIP := append([]pair(nil), ps...)
		sort.Slice(byIP, func(a, b int) bool { return byIP[a].ip > byIP[b].ip })
		for i := range byDist {
			if byDist[i].id != byIP[i].id &&
				math.Abs(byDist[i].ip-byIP[i].ip) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIPRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rows := randRows(r, 20, 6)
	q := randRows(r, 1, 6)[0]
	tr, aug := augmentRows(t, rows)
	aq, _ := tr.QueryInto(make([]float32, tr.Dim+1), q)
	for i := range rows {
		d := vec.L2Sq(aq, aug[i])
		got := float64(tr.IPFromSqDist(d, q))
		want := vec.Dot64(q, rows[i])
		if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("row %d: recovered IP %v, want %v", i, got, want)
		}
	}
	if _, err := tr.QueryInto(make([]float32, tr.Dim+1), q[:2]); err == nil {
		t.Fatal("expected dim error")
	}
}
