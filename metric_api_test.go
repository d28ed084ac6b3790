package resinfer

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"resinfer/internal/vec"
)

func randData(seed int64, n, d int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
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

func TestCosineIndexMatchesBruteForce(t *testing.T) {
	data := randData(1, 800, 24)
	ix, err := New(data, HNSW, &Options{Seed: 2, Metric: Cosine, HNSWEfConstruction: 80})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Metric() != Cosine {
		t.Fatal("metric")
	}
	q := randData(99, 1, 24)[0]
	hits, err := ix.Search(q, 5, Exact, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force cosine ranking.
	type pair struct {
		id  int
		cos float64
	}
	qn := vec.Norm(q)
	ps := make([]pair, len(data))
	for i, row := range data {
		ps[i] = pair{i, vec.Dot64(q, row) / float64(qn) / float64(vec.Norm(row))}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].cos > ps[b].cos })
	want := map[int]bool{}
	for _, p := range ps[:5] {
		want[p.id] = true
	}
	match := 0
	for _, h := range hits {
		if want[h.ID] {
			match++
		}
		// Score converts back to cosine similarity.
		got := float64(ix.Score(h, q))
		exact := vec.Dot64(q, data[h.ID]) / float64(qn) / float64(vec.Norm(data[h.ID]))
		if math.Abs(got-exact) > 1e-3 {
			t.Fatalf("Score %v, brute cosine %v", got, exact)
		}
	}
	if match < 4 {
		t.Fatalf("cosine top-5 overlap %d/5", match)
	}
}

func TestInnerProductIndexMatchesBruteForce(t *testing.T) {
	data := randData(3, 800, 16)
	ix, err := New(data, HNSW, &Options{Seed: 4, Metric: InnerProduct, HNSWEfConstruction: 80})
	if err != nil {
		t.Fatal(err)
	}
	q := randData(55, 1, 16)[0]
	hits, err := ix.Search(q, 5, Exact, 80)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		id int
		ip float64
	}
	ps := make([]pair, len(data))
	for i, row := range data {
		ps[i] = pair{i, vec.Dot64(q, row)}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].ip > ps[b].ip })
	want := map[int]bool{}
	for _, p := range ps[:5] {
		want[p.id] = true
	}
	match := 0
	for _, h := range hits {
		if want[h.ID] {
			match++
		}
		got := float64(ix.Score(h, q))
		if math.Abs(got-vec.Dot64(q, data[h.ID])) > 1e-2 {
			t.Fatalf("Score %v, brute IP %v", got, vec.Dot64(q, data[h.ID]))
		}
	}
	if match < 4 {
		t.Fatalf("IP top-5 overlap %d/5", match)
	}
}

func TestMetricWithDDCRes(t *testing.T) {
	data := randData(5, 1000, 32)
	ix, err := New(data, HNSW, &Options{Seed: 6, Metric: Cosine, HNSWEfConstruction: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	q := randData(77, 1, 32)[0]
	exact, err := ix.Search(q, 10, Exact, 60)
	if err != nil {
		t.Fatal(err)
	}
	ddc, err := ix.Search(q, 10, DDCRes, 60)
	if err != nil {
		t.Fatal(err)
	}
	// DDCres on the normalized data must agree with exact almost always.
	same := 0
	ex := map[int]bool{}
	for _, h := range exact {
		ex[h.ID] = true
	}
	for _, h := range ddc {
		if ex[h.ID] {
			same++
		}
	}
	if same < 9 {
		t.Fatalf("cosine DDCres overlap %d/10", same)
	}
}

func TestMetricSaveLoad(t *testing.T) {
	data := randData(7, 500, 12)
	ix, err := New(data, HNSW, &Options{Seed: 8, Metric: InnerProduct, HNSWEfConstruction: 40})
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
	if loaded.Metric() != InnerProduct {
		t.Fatal("metric lost in round trip")
	}
	q := randData(11, 1, 12)[0]
	a, err := ix.Search(q, 5, Exact, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(q, 5, Exact, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("results differ after metric round trip")
		}
	}
}

func TestUnknownMetric(t *testing.T) {
	if _, err := New(randData(9, 10, 4), HNSW, &Options{Metric: MetricKind("hamming")}); err == nil {
		t.Fatal("expected unknown-metric error")
	}
}

func TestCosineRejectsZeroVector(t *testing.T) {
	data := randData(10, 10, 4)
	data[3] = []float32{0, 0, 0, 0}
	if _, err := New(data, HNSW, &Options{Metric: Cosine}); err == nil {
		t.Fatal("expected zero-vector error")
	}
}

func TestSearchBatch(t *testing.T) {
	ds, gt := apiFixtures(t)
	ix, err := New(ds.Data, HNSW, &Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchBatch(ds.Queries, 10, Exact, 80, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ds.Queries) {
		t.Fatal("batch length")
	}
	results := make([][]int, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for _, n := range r.Neighbors {
			results[i] = append(results[i], n.ID)
		}
	}
	// Batch must match serial search exactly.
	for i, q := range ds.Queries[:3] {
		serial, err := ix.Search(q, 10, Exact, 80)
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial {
			if serial[j].ID != res[i].Neighbors[j].ID {
				t.Fatal("batch result differs from serial")
			}
		}
	}
	_ = gt
	if _, err := ix.SearchBatch(nil, 10, Exact, 80, 0); err == nil {
		t.Fatal("expected empty-batch error")
	}
}

func TestSearchBatchMalformedFailsFast(t *testing.T) {
	ds, _ := apiFixtures(t)
	ix, err := New(ds.Data[:200], HNSW, &Options{Seed: 23, HNSWEfConstruction: 40})
	if err != nil {
		t.Fatal(err)
	}
	// A dimension mismatch anywhere in the batch is detected up front and
	// fails the whole call with one error, before any search runs.
	bad := [][]float32{ds.Queries[0], ds.Queries[1][:5]}
	if _, err := ix.SearchBatch(bad, 5, Exact, 20, 2); err == nil {
		t.Fatal("expected up-front dim-mismatch error")
	}
	// Errors that are not statically detectable are still reported per
	// query rather than aborting the batch.
	res, err := ix.SearchBatch(ds.Queries[:2], 5, DDCRes, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err == nil {
			t.Fatal("mode not enabled must surface per query")
		}
	}
}

// TestConstructorsRejectNonFiniteRows: construction validates a row the way
// Add does. A NaN used to pass New and surface later, as Enable(DDCRes)
// failing with "tqli failed to converge" and naming nothing.
func TestConstructorsRejectNonFiniteRows(t *testing.T) {
	data := randData(11, 500, 48)
	data[7][3] = float32(math.NaN())
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidVector) {
			t.Fatalf("%s = %v, want ErrInvalidVector", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "row 7") || !strings.Contains(msg, "component 3") {
			t.Fatalf("%s = %q, want row 7 and component 3 named", name, msg)
		}
	}
	for _, mk := range []MetricKind{L2, Cosine, InnerProduct} {
		o := &Options{Metric: mk}
		_, err := New(data, Flat, o)
		check("New", err)
		_, err = NewSharded(data, Flat, 4, &ShardOptions{Index: o})
		check("NewSharded", err)
		_, err = NewMutable(data, Flat, 4, &MutableOptions{Index: o, DisableAutoCompact: true})
		check("NewMutable", err)
	}
	data[7][3] = float32(math.Inf(-1))
	_, err := New(data, Flat, nil)
	check("New(-Inf)", err)
	data[7] = data[7][:3]
	if _, err := New(data, Flat, nil); !errors.Is(err, ErrInvalidVector) || !strings.Contains(err.Error(), "row 7") {
		t.Fatalf("New(ragged) = %v, want ErrInvalidVector naming row 7", err)
	}
}
