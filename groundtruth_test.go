package resinfer

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resinfer/internal/fault"
)

// gtNaive is a per-metric reference ranking computed with plain float64
// arithmetic over the caller-space rows: the independent oracle the
// SIMD-kernel ground-truth scan must agree with.
func gtNaive(data map[int][]float32, q []float32, metric MetricKind, k int) []int {
	type scored struct {
		id  int
		key float64
	}
	var all []scored
	for id, row := range data {
		var key float64
		switch metric {
		case Cosine:
			var dot, nr, nq float64
			for i := range row {
				dot += float64(row[i]) * float64(q[i])
				nr += float64(row[i]) * float64(row[i])
				nq += float64(q[i]) * float64(q[i])
			}
			key = -dot / math.Sqrt(nr*nq) // descending similarity
		case InnerProduct:
			var dot float64
			for i := range row {
				dot += float64(row[i]) * float64(q[i])
			}
			key = -dot
		default:
			var d float64
			for i := range row {
				diff := float64(row[i]) - float64(q[i])
				d += diff * diff
			}
			key = d
		}
		all = append(all, scored{id, key})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]int, len(all))
	for i, s := range all {
		ids[i] = s.id
	}
	return ids
}

func gtOverlap(a, b []int) int {
	set := map[int]struct{}{}
	for _, id := range a {
		set[id] = struct{}{}
	}
	n := 0
	for _, id := range b {
		if _, ok := set[id]; ok {
			n++
		}
	}
	return n
}

func TestGroundTruthSearchExactAcrossMetrics(t *testing.T) {
	const n, dim, k, shards = 300, 12, 10, 3
	rng := rand.New(rand.NewSource(42))
	data := make([][]float32, n)
	live := map[int][]float32{}
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = rng.Float32()*2 - 1
		}
		live[i] = data[i]
	}
	for _, metric := range []MetricKind{L2, Cosine, InnerProduct} {
		sx, err := NewSharded(data, Flat, shards, &ShardOptions{Index: &Options{Metric: metric}})
		if err != nil {
			t.Fatalf("%s: NewSharded: %v", metric, err)
		}
		for qi := 0; qi < 20; qi++ {
			q := make([]float32, dim)
			for j := range q {
				q[j] = rng.Float32()*2 - 1
			}
			got, owners, comp, err := sx.GroundTruthSearch(nil, nil, q, k)
			if err != nil {
				t.Fatalf("%s: GroundTruthSearch: %v", metric, err)
			}
			if len(got) != k || len(owners) != k {
				t.Fatalf("%s: got %d neighbors, %d owners, want %d", metric, len(got), len(owners), k)
			}
			if comp != n {
				t.Fatalf("%s: compared %d rows, want %d", metric, comp, n)
			}
			for i := 1; i < len(got); i++ {
				if got[i].Distance < got[i-1].Distance {
					t.Fatalf("%s: results not ascending at %d", metric, i)
				}
			}
			gotIDs := make([]int, len(got))
			for i, nb := range got {
				gotIDs[i] = nb.ID
				if owners[i] != nb.ID%shards { // RoundRobin partition
					t.Fatalf("%s: neighbor %d attributed to shard %d, want %d",
						metric, nb.ID, owners[i], nb.ID%shards)
				}
			}
			want := gtNaive(live, q, metric, k)
			// float32 kernel vs float64 reference can swap near-ties at
			// the tail; demand near-total agreement, and exact top-1.
			if ov := gtOverlap(want, gotIDs); ov < k-1 {
				t.Fatalf("%s: overlap %d/%d with naive oracle (got %v want %v)",
					metric, ov, k, gotIDs, want)
			}
			if gotIDs[0] != want[0] {
				t.Fatalf("%s: top-1 %d, naive oracle %d", metric, gotIDs[0], want[0])
			}
		}
	}
}

func TestGroundTruthSearchMutationAware(t *testing.T) {
	const n, dim, k, shards = 200, 8, 10, 2
	rng := rand.New(rand.NewSource(7))
	data := make([][]float32, n)
	live := map[int][]float32{}
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = rng.Float32()
		}
		live[i] = data[i]
	}
	mx, err := NewMutable(data, Flat, shards, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatalf("NewMutable: %v", err)
	}
	defer mx.Close()

	// Delete some base rows, upsert over others, and add fresh rows so
	// the scan must honor tombstones, shadowed base rows, and memtables.
	for id := 0; id < 20; id++ {
		if _, err := mx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		delete(live, id)
	}
	for id := 20; id < 40; id++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		if _, err := mx.Upsert(id, v); err != nil {
			t.Fatalf("Upsert(%d): %v", id, err)
		}
		live[id] = v
	}
	for i := 0; i < 30; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		id, err := mx.Add(v)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		live[id] = v
	}

	var dst []Neighbor
	var owners []int
	for qi := 0; qi < 10; qi++ {
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32()
		}
		var err error
		dst, owners, _, err = mx.GroundTruthSearch(dst[:0], owners[:0], q, k)
		if err != nil {
			t.Fatalf("GroundTruthSearch: %v", err)
		}
		gotIDs := make([]int, len(dst))
		for i, nb := range dst {
			gotIDs[i] = nb.ID
			if _, ok := live[nb.ID]; !ok {
				t.Fatalf("ground truth returned dead/stale id %d", nb.ID)
			}
			if owners[i] < 0 || owners[i] >= shards {
				t.Fatalf("owner shard %d out of range", owners[i])
			}
		}
		want := gtNaive(live, q, L2, k)
		if ov := gtOverlap(want, gotIDs); ov < k-1 {
			t.Fatalf("overlap %d/%d with naive oracle over mutated corpus (got %v want %v)",
				ov, k, gotIDs, want)
		}
	}

	// After compaction the same scan must still agree (memtables folded
	// into the base, tombstones retired).
	if _, err := mx.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()
	}
	dst, _, _, err = mx.GroundTruthSearch(dst[:0], owners[:0], q, k)
	if err != nil {
		t.Fatalf("GroundTruthSearch after compact: %v", err)
	}
	gotIDs := make([]int, len(dst))
	for i, nb := range dst {
		gotIDs[i] = nb.ID
	}
	want := gtNaive(live, q, L2, k)
	if ov := gtOverlap(want, gotIDs); ov < k-1 {
		t.Fatalf("post-compaction overlap %d/%d (got %v want %v)", ov, k, gotIDs, want)
	}
}

func TestGroundTruthSearchValidation(t *testing.T) {
	data := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	sx, err := NewSharded(data, Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sx.GroundTruthSearch(nil, nil, []float32{1}, 2); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, _, _, err := sx.GroundTruthSearch(nil, nil, []float32{1, 2}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k larger than the corpus truncates to the corpus.
	ns, owners, _, err := sx.GroundTruthSearch(nil, nil, []float32{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != len(data) || len(owners) != len(data) {
		t.Fatalf("k>n returned %d results, want %d", len(ns), len(data))
	}
}

// TestGroundTruthSearchStructures runs ground truth over HNSW and IVF
// shards — each scanned through its Flat view, on rows a ddc-res re-base
// rotated — of a mutable index with deletes, upserts and fresh adds: the
// answers match the naive oracle over the live rows, each is attributed to
// the shard that owns it, and an armed shard.search fault and an installed
// shard observer see none of it. The first samples build the views
// concurrently.
func TestGroundTruthSearchStructures(t *testing.T) {
	const n, dim, k, shards = 360, 40, 10, 3
	for _, kind := range []IndexKind{HNSW, IVF} {
		for _, metric := range []MetricKind{L2, Cosine, InnerProduct} {
			name := string(kind) + "/" + string(metric)
			rng := rand.New(rand.NewSource(11))
			row := func() []float32 {
				v := make([]float32, dim)
				for j := range v {
					v[j] = float32(rng.NormFloat64())
				}
				return v
			}
			data := make([][]float32, n)
			live := map[int][]float32{}
			for i := range data {
				data[i] = row()
				live[i] = data[i]
			}
			mx, err := NewMutable(data, kind, shards, &MutableOptions{
				Index:              &Options{Metric: metric, Seed: 3, HNSWEfConstruction: 40},
				DisableAutoCompact: true,
			})
			if err != nil {
				t.Fatalf("%s: NewMutable: %v", name, err)
			}
			if err := mx.Enable(DDCRes, nil); err != nil {
				t.Fatalf("%s: Enable: %v", name, err)
			}
			for id := 0; id < 30; id++ {
				if _, err := mx.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
			for id := 30; id < 60; id++ {
				v := row()
				if _, err := mx.Upsert(id, v); err != nil {
					t.Fatal(err)
				}
				live[id] = v
			}
			for i := 0; i < 30; i++ {
				v := row()
				id, err := mx.Add(v)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = v
			}

			// The first samples race each other to build every shard's Flat
			// view, beside served searches.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(q []float32) {
					defer wg.Done()
					if _, _, _, err := mx.GroundTruthSearch(nil, nil, q, k); err != nil {
						t.Error(err)
					}
					if _, err := mx.Search(q, k, DDCRes, 40); err != nil {
						t.Error(err)
					}
				}(row())
			}
			wg.Wait()

			var observed atomic.Int64
			mx.SetShardObserver(func(int, time.Duration, SearchStats) { observed.Add(1) })
			remove := fault.Inject(fault.Injection{
				Site: fault.SiteShardSearch, Arg: fault.AnyArg, Err: errors.New("injected: shard down"),
			})
			var dst []Neighbor
			var owners []int
			for qi := 0; qi < 8; qi++ {
				q := row()
				var comp int
				dst, owners, comp, err = mx.GroundTruthSearch(dst[:0], owners[:0], q, k)
				if err != nil {
					remove()
					t.Fatalf("%s: GroundTruthSearch: %v", name, err)
				}
				if want := n + 60; comp != want { // every base row, every memtable row
					t.Errorf("%s: scanned %d rows, want %d", name, comp, want)
				}
				gotIDs := make([]int, len(dst))
				mx.mut.mu.Lock()
				for i, nb := range dst {
					gotIDs[i] = nb.ID
					if s, ok := mx.mut.owner[nb.ID]; !ok || s != owners[i] {
						t.Errorf("%s: neighbor %d attributed to shard %d, owner %d (live %v)", name, nb.ID, owners[i], s, ok)
					}
				}
				mx.mut.mu.Unlock()
				want := gtNaive(live, q, metric, k)
				if ov := gtOverlap(want, gotIDs); ov < k-1 || gotIDs[0] != want[0] {
					t.Errorf("%s: ground truth %v, naive oracle %v", name, gotIDs, want)
				}
			}
			remove()
			if got := observed.Load(); got != 0 {
				t.Errorf("%s: the shard observer saw %d ground-truth probes", name, got)
			}
			mx.Close()
		}
	}
}
