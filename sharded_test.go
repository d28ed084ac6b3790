package resinfer

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"resinfer/internal/dataset"
	"resinfer/internal/obs"
)

func shardedRecallOf(t testing.TB, sx *ShardedIndex, queries [][]float32, gt [][]int, mode Mode, budget int) float64 {
	t.Helper()
	results := make([][]int, len(queries))
	for qi, q := range queries {
		ns, err := sx.Search(q, 10, mode, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			results[qi] = append(results[qi], n.ID)
		}
	}
	return dataset.Recall(results, gt, 10)
}

func TestNewShardedErrors(t *testing.T) {
	ds, _ := apiFixtures(t)
	if _, err := NewSharded(nil, Flat, 2, nil); err == nil {
		t.Fatal("expected empty-data error")
	}
	if _, err := NewSharded(ds.Data[:10], Flat, 0, nil); err == nil {
		t.Fatal("expected non-positive shard count error")
	}
	if _, err := NewSharded(ds.Data[:10], Flat, 11, nil); err == nil {
		t.Fatal("expected too-many-shards error")
	}
	if _, err := NewSharded(ds.Data[:10], Flat, 2, &ShardOptions{Strategy: "hash"}); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

// Exact mode over flat shards must be lossless: the merged result set
// equals the unsharded exact scan, for both assignment strategies.
func TestShardedExactLossless(t *testing.T) {
	ds, gt := apiFixtures(t)
	for _, strategy := range []ShardStrategy{RoundRobin, Contiguous} {
		sx, err := NewSharded(ds.Data, Flat, 3, &ShardOptions{Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if sx.Len() != len(ds.Data) || sx.NumShards() != 3 || sx.Strategy() != strategy {
			t.Fatal("metadata")
		}
		if r := shardedRecallOf(t, sx, ds.Queries, gt, Exact, 0); r != 1.0 {
			t.Fatalf("strategy %s: exact sharded recall = %v, want 1.0", strategy, r)
		}
	}
}

func TestShardedHNSWWithDCO(t *testing.T) {
	ds, gt := apiFixtures(t)
	sx, err := NewSharded(ds.Data, HNSW, 3, &ShardOptions{Index: &Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	if !sx.Enabled(DDCRes) || !sx.Enabled(Exact) {
		t.Fatal("modes should be enabled on every shard")
	}
	if r := shardedRecallOf(t, sx, ds.Queries, gt, DDCRes, 80); r < 0.9 {
		t.Fatalf("sharded HNSW+DDCRes recall = %v", r)
	}
	// Stats must aggregate across shards.
	_, st, err := sx.SearchInto(nil, ds.Queries[0], 10, DDCRes, 80)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comparisons == 0 || st.ScanRate <= 0 || st.ScanRate > 1 {
		t.Fatalf("implausible aggregated stats: %+v", st)
	}
}

func TestShardedEnableWithTraining(t *testing.T) {
	ds, gt := apiFixtures(t)
	sx, err := NewSharded(ds.Data, IVF, 2, &ShardOptions{Index: &Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.EnableWithTraining(DDCPCA, ds.Train, nil); err != nil {
		t.Fatal(err)
	}
	if r := shardedRecallOf(t, sx, ds.Queries, gt, DDCPCA, 24); r < 0.8 {
		t.Fatalf("sharded IVF+DDCPCA recall = %v", r)
	}
}

func TestShardedBatchMatchesSingle(t *testing.T) {
	ds, _ := apiFixtures(t)
	sx, err := NewSharded(ds.Data, Flat, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sx.SearchBatch(ds.Queries, 10, Exact, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		single, err := sx.Search(ds.Queries[qi], 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(r.Neighbors) {
			t.Fatalf("query %d: batch %d hits, single %d", qi, len(r.Neighbors), len(single))
		}
		for i := range single {
			if single[i].ID != r.Neighbors[i].ID {
				t.Fatalf("query %d rank %d: batch %d, single %d", qi, i, r.Neighbors[i].ID, single[i].ID)
			}
		}
	}
}

func TestShardedBatchValidation(t *testing.T) {
	ds, _ := apiFixtures(t)
	sx, err := NewSharded(ds.Data[:100], Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.SearchBatch(nil, 10, Exact, 0, 0); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := sx.SearchBatch(ds.Queries, 0, Exact, 0, 0); err == nil {
		t.Fatal("expected bad-k error")
	}
	if _, err := sx.SearchBatch(ds.Queries, 10, Exact, -1, 0); err == nil {
		t.Fatal("expected bad-budget error")
	}
	bad := [][]float32{{1, 2, 3}}
	if _, err := sx.SearchBatch(bad, 10, Exact, 0, 0); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	ds, gt := apiFixtures(t)
	sx, err := NewSharded(ds.Data, HNSW, 2, &ShardOptions{Index: &Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lx, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lx.Len() != sx.Len() || lx.NumShards() != 2 || lx.Kind() != HNSW || lx.Strategy() != RoundRobin {
		t.Fatal("round-trip metadata")
	}
	if !lx.Enabled(DDCRes) {
		t.Fatal("round-trip should keep DDCRes enabled")
	}
	// Loaded index must answer identically to the original.
	for _, q := range ds.Queries[:5] {
		a, err := sx.Search(q, 10, DDCRes, 80)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lx.Search(q, 10, DDCRes, 80)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result length %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("rank %d: %d vs %d", i, a[i].ID, b[i].ID)
			}
		}
	}
	if r := shardedRecallOf(t, lx, ds.Queries, gt, DDCRes, 80); r < 0.9 {
		t.Fatalf("round-trip recall = %v", r)
	}
}

func TestLoadShardedRejectsCorruption(t *testing.T) {
	ds, _ := apiFixtures(t)
	sx, err := NewSharded(ds.Data[:200], Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadSharded(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("expected truncation error")
	}
	mangled := append([]byte("XX"), raw[2:]...)
	if _, err := LoadSharded(bytes.NewReader(mangled)); err == nil {
		t.Fatal("expected bad-magic error")
	}
	// Shards that disagree on structure cannot be one index: the fan-out
	// budget, the merge and the rotate-once cache all assume they agree.
	other, err := New(ds.Data[:sx.shards[1].Len()], HNSW, &Options{HNSWEfConstruction: 20})
	if err != nil {
		t.Fatal(err)
	}
	sx.shards[1] = other
	buf.Reset()
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(&buf); err == nil {
		t.Fatal("expected mismatched-shard error")
	}
}

// An InnerProduct sharded index augments each shard's vectors with a
// different constant, so the merge must rank by the recovered native
// score; verify the sharded top-k matches the unsharded one.
func TestShardedInnerProductMerge(t *testing.T) {
	ds, _ := apiFixtures(t)
	data := ds.Data[:600]
	opts := &Options{Metric: InnerProduct}
	ix, err := New(data, Flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewSharded(data, Flat, 3, &ShardOptions{Index: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries[:10] {
		want, err := ix.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("result length %d vs %d", len(got), len(want))
		}
		for i := range want {
			if want[i].ID != got[i].ID {
				t.Fatalf("rank %d: sharded %d (score %v), unsharded %d (score %v)",
					i, got[i].ID, sx.Score(got[i], q), want[i].ID, ix.Score(want[i], q))
			}
		}
	}
}

// SingleShard must be a transparent wrapper: the same neighbors in the
// same order as the wrapped Index, with Distance in the sharded merge-key
// convention (the index's own distance for L2 / Cosine, the negated inner
// product for InnerProduct), on both search paths.
func TestSingleShardMatchesIndex(t *testing.T) {
	ds, _ := apiFixtures(t)
	for _, kind := range []IndexKind{Flat, HNSW} {
		for _, metric := range []MetricKind{L2, Cosine, InnerProduct} {
			ix, err := New(ds.Data, kind, &Options{Metric: metric, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Enable(DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			sx := SingleShard(ix)
			if sx.NumShards() != 1 || sx.Len() != ix.Len() || sx.QueryDim() != ix.QueryDim() || !sx.Enabled(DDCRes) {
				t.Fatalf("%s/%s: wrapper metadata differs from the index", kind, metric)
			}
			for _, mode := range []Mode{Exact, DDCRes} {
				for _, q := range ds.Queries {
					want, wantSt, err := ix.SearchInto(nil, q, 10, mode, 60)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := sx.SearchInto(nil, q, 10, mode, 60)
					if err != nil {
						t.Fatal(err)
					}
					viaCtx, _, err := sx.SearchCtx(context.Background(), nil, q, 10, mode, 60, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) || len(viaCtx) != len(want) || gotSt.Comparisons != wantSt.Comparisons {
						t.Fatalf("%s/%s/%s: %d (ctx %d) hits, %d comparisons; index %d hits, %d comparisons",
							kind, metric, mode, len(got), len(viaCtx), gotSt.Comparisons, len(want), wantSt.Comparisons)
					}
					for i, w := range want {
						wantDist := w.Distance
						if metric == InnerProduct {
							wantDist = -ix.Score(w, q)
						}
						if got[i].ID != w.ID || got[i].Distance != wantDist || viaCtx[i] != got[i] {
							t.Fatalf("%s/%s/%s rank %d: got %+v (ctx %+v), want {%d %v}",
								kind, metric, mode, i, got[i], viaCtx[i], w.ID, wantDist)
						}
					}
				}
			}
		}
	}
}

// TestShardTraceMatchesObserver: a traced, observed fan times each probe
// once, so the trace's shard stage and the observer's duration are one
// measurement.
func TestShardTraceMatchesObserver(t *testing.T) {
	sx, err := NewSharded(randData(3, 400, 16), Flat, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	observed := map[int]time.Duration{}
	sx.SetShardObserver(func(shard int, d time.Duration, _ SearchStats) {
		mu.Lock()
		observed[shard] = d
		mu.Unlock()
	})
	for _, q := range randData(4, 5, 16) {
		clear(observed)
		tr := obs.NewTrace()
		if _, _, err := sx.SearchCtx(context.Background(), nil, q, 10, Exact, 0, tr); err != nil {
			t.Fatal(err)
		}
		snap := tr.Snapshot()
		if len(snap.Shards) != 4 {
			t.Fatalf("trace holds %d shard stages, want 4", len(snap.Shards))
		}
		mu.Lock()
		for _, sh := range snap.Shards {
			if d, ok := observed[sh.Shard]; !ok || d != sh.Dur {
				t.Errorf("shard %d: trace %v, observer %v", sh.Shard, sh.Dur, d)
			}
		}
		mu.Unlock()
	}
}
