package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// blobs generates n points around k well-separated centers.
func blobs(r *rand.Rand, n, k, d int, spread float64) ([][]float32, []int) {
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = float64(i*20) + r.NormFloat64()
		}
	}
	data := make([][]float32, n)
	labels := make([]int, n)
	for i := range data {
		c := i % k
		labels[i] = c
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(centers[c][j] + spread*r.NormFloat64())
		}
		data[i] = row
	}
	return data, labels
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{K: 2}); err == nil {
		t.Fatal("expected empty-data error")
	}
	data := [][]float32{{1, 2}, {3, 4}}
	if _, err := Train(store.MustFromRows(data), Config{K: 0}); err == nil {
		t.Fatal("expected K<1 error")
	}
	if _, err := Train(store.MustFromRows(data), Config{K: 3}); err == nil {
		t.Fatal("expected K>n error")
	}
	if _, err := store.FromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestTrainSeparatedBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data, labels := blobs(r, 600, 3, 8, 0.3)
	res, err := Train(store.MustFromRows(data), Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// All points with the same true label must share a cluster, and
	// different labels must differ (well-separated blobs).
	labelToCluster := map[int]int{}
	for i := range data {
		c := res.Assign[i]
		if prev, ok := labelToCluster[labels[i]]; ok {
			if prev != c {
				t.Fatalf("label %d split across clusters %d and %d", labels[i], prev, c)
			}
		} else {
			labelToCluster[labels[i]] = c
		}
	}
	if len(labelToCluster) != 3 {
		t.Fatalf("expected 3 distinct clusters, got %d", len(labelToCluster))
	}
}

func TestTrainInertiaDecreasesVsK1(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data, _ := blobs(r, 300, 4, 6, 0.5)
	r1, err := Train(store.MustFromRows(data), Config{K: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Train(store.MustFromRows(data), Config{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Inertia >= r1.Inertia {
		t.Fatalf("K=4 inertia %v should beat K=1 inertia %v", r4.Inertia, r1.Inertia)
	}
}

func TestTrainDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data, _ := blobs(r, 200, 3, 4, 0.4)
	a, err := Train(store.MustFromRows(data), Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(store.MustFromRows(data), Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give identical assignment")
		}
	}
}

// Property: every point is assigned to its truly nearest centroid after
// training (assignment consistency invariant).
func TestAssignmentConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(100)
		k := 1 + r.Intn(5)
		data := make([][]float32, n)
		for i := range data {
			row := make([]float32, 4)
			for j := range row {
				row[j] = float32(r.NormFloat64())
			}
			data[i] = row
		}
		res, err := Train(store.MustFromRows(data), Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		for i, row := range data {
			want, _ := NearestCentroid(res.Centroids, row)
			got := res.Assign[i]
			// Ties are possible; accept if distances are equal.
			if got != want {
				dw := vec.L2Sq(row, res.Centroids.Row(want))
				dg := vec.L2Sq(row, res.Centroids.Row(got))
				if dg != dw {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cluster sizes sum to n.
func TestSizesSumToN(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		k := 1 + r.Intn(6)
		data := make([][]float32, n)
		for i := range data {
			data[i] = []float32{float32(r.NormFloat64()), float32(r.NormFloat64())}
		}
		res, err := Train(store.MustFromRows(data), Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNearestCentroids(t *testing.T) {
	centroids := store.MustFromRows([][]float32{{0, 0}, {10, 0}, {0, 10}, {10, 10}})
	q := []float32{1, 1}
	got, _ := NearestCentroidsInto(centroids, q, 2, nil, nil)
	if len(got) != 2 || got[0] != 0 {
		t.Fatalf("NearestCentroidsInto = %v", got)
	}
	// nprobe larger than K clamps.
	all, _ := NearestCentroidsInto(centroids, q, 99, nil, nil)
	if len(all) != 4 {
		t.Fatalf("clamped len = %d", len(all))
	}
	// Ascending order of distance.
	prev := float32(-1)
	for _, k := range all {
		d := vec.L2Sq(q, centroids.Row(k))
		if d < prev {
			t.Fatal("NearestCentroidsInto not ascending")
		}
		prev = d
	}
}

func TestDuplicatePointsDoNotCrash(t *testing.T) {
	data := make([][]float32, 50)
	for i := range data {
		data[i] = []float32{1, 2, 3}
	}
	res, err := Train(store.MustFromRows(data), Config{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Inertia) {
		t.Fatal("NaN inertia on duplicate data")
	}
}

func TestSingleWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(5))
	data, _ := blobs(r, 100, 2, 4, 0.3)
	res, err := Train(store.MustFromRows(data), Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows() != 2 {
		t.Fatal("wrong centroid count")
	}
}

func TestNearestCentroidsDegenerateDistances(t *testing.T) {
	centroids := store.MustFromRows([][]float32{{0, 0}, {10, 0}, {0, 10}})
	// A query whose squared distances all overflow to +Inf must still
	// yield a valid, duplicate-free probe order instead of index -1.
	huge := []float32{3e38, 3e38}
	got, _ := NearestCentroidsInto(centroids, huge, 3, nil, nil)
	if len(got) != 3 {
		t.Fatalf("probe count = %d", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if c < 0 || c >= 3 || seen[c] {
			t.Fatalf("invalid probe order %v", got)
		}
		seen[c] = true
	}
	// Same for a NaN-containing query.
	nan := []float32{float32(math.NaN()), 1}
	got, _ = NearestCentroidsInto(centroids, nan, 2, nil, nil)
	for _, c := range got {
		if c < 0 || c >= 3 {
			t.Fatalf("NaN query produced probe %d", c)
		}
	}
}
