package resinfer_test

// Steady-state serving benchmarks for the pooled, contiguous-storage
// search path. The acceptance bar for the zero-alloc work is
// BenchmarkSearchIntoSteadyState* reporting 0 allocs/op: after Enable,
// a search that reuses its destination slice draws every piece of
// per-query state (evaluator, rotated-query and suffix scratch, traversal
// queues, visited marks) from pools.
//
// Run with: go test -bench=SearchInto -benchmem .

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/allocguard"
)

var (
	benchOnce sync.Once
	benchErr  error
	benchIdx  map[resinfer.IndexKind]*resinfer.Index
	benchQs   [][]float32
)

const (
	benchN   = 6000
	benchDim = 64
	benchK   = 10
)

func benchSetup(b testing.TB) {
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		data := make([][]float32, benchN)
		for i := range data {
			row := make([]float32, benchDim)
			for j := range row {
				row[j] = float32(rng.NormFloat64())
			}
			data[i] = row
		}
		benchQs = make([][]float32, 32)
		for i := range benchQs {
			q := make([]float32, benchDim)
			for j := range q {
				q[j] = float32(rng.NormFloat64())
			}
			benchQs[i] = q
		}
		benchIdx = map[resinfer.IndexKind]*resinfer.Index{}
		for _, kind := range []resinfer.IndexKind{resinfer.Flat, resinfer.HNSW, resinfer.IVF} {
			ix, err := resinfer.New(data, kind, &resinfer.Options{Seed: 1})
			if err != nil {
				benchErr = err
				return
			}
			if err := ix.Enable(resinfer.DDCRes, nil); err != nil {
				benchErr = err
				return
			}
			benchIdx[kind] = ix
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func benchSearchInto(b *testing.B, kind resinfer.IndexKind, mode resinfer.Mode) {
	benchSetup(b)
	ix := benchIdx[kind]
	var dst []resinfer.Neighbor
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, err = ix.SearchInto(dst[:0], benchQs[i%len(benchQs)], benchK, mode, 80)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchIntoSteadyStateFlatExact must report 0 allocs/op: the
// flat-scan serving path with a reused destination slice.
func BenchmarkSearchIntoSteadyStateFlatExact(b *testing.B) {
	benchSearchInto(b, resinfer.Flat, resinfer.Exact)
}

// BenchmarkSearchIntoSteadyStateFlatDDCRes must report 0 allocs/op: the
// pooled DDCres evaluator (rotated query, σ suffix table) is reused.
func BenchmarkSearchIntoSteadyStateFlatDDCRes(b *testing.B) {
	benchSearchInto(b, resinfer.Flat, resinfer.DDCRes)
}

// BenchmarkSearchIntoSteadyStateHNSWDDCRes must report 0 allocs/op: graph
// traversal scratch (visited epochs, candidate and result queues) is
// pooled alongside the evaluator.
func BenchmarkSearchIntoSteadyStateHNSWDDCRes(b *testing.B) {
	benchSearchInto(b, resinfer.HNSW, resinfer.DDCRes)
}

// BenchmarkSearchIntoSteadyStateIVFDDCRes must report 0 allocs/op: probe
// selection scratch is pooled alongside the evaluator.
func BenchmarkSearchIntoSteadyStateIVFDDCRes(b *testing.B) {
	benchSearchInto(b, resinfer.IVF, resinfer.DDCRes)
}

// BenchmarkSearchAllocating is the same HNSW+DDCRes query through the
// plain Search API, which allocates only the caller-visible result slice.
func BenchmarkSearchAllocating(b *testing.B) {
	benchSetup(b)
	ix := benchIdx[resinfer.HNSW]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(benchQs[i%len(benchQs)], benchK, resinfer.DDCRes, 80); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchBatchPooled exercises the one-evaluator-per-worker batch
// path end to end.
func BenchmarkSearchBatchPooled(b *testing.B) {
	benchSetup(b)
	ix := benchIdx[resinfer.HNSW]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ix.SearchBatch(benchQs, benchK, resinfer.DDCRes, 80, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// shardedObsSetup builds a 4-shard index with per-shard metrics
// observation installed — the exact serving configuration of
// internal/server with /metrics enabled and tracing off. At workers 1 the
// fan-out spawns nothing and is the allocation-free path; every worker
// beyond the first is one helper goroutine spawned per query.
func shardedObsSetup(b testing.TB, workers int) (*resinfer.ShardedIndex, func()) {
	benchSetup(b)
	rng := rand.New(rand.NewSource(7))
	data := make([][]float32, benchN)
	for i := range data {
		row := make([]float32, benchDim)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		data[i] = row
	}
	sx, err := resinfer.NewSharded(data, resinfer.Flat, 4,
		&resinfer.ShardOptions{SearchWorkers: workers, Index: &resinfer.Options{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	if err := sx.Enable(resinfer.DDCRes, nil); err != nil {
		b.Fatal(err)
	}
	var observed atomic.Int64
	sx.SetShardObserver(func(shard int, d time.Duration, st resinfer.SearchStats) {
		observed.Add(1)
	})
	return sx, func() {
		if observed.Load() == 0 {
			b.Fatal("shard observer never fired: the benchmark is not measuring the metrics-on path")
		}
	}
}

// BenchmarkSearchIntoSteadyStateShardedMetricsOn is the observability
// regression guard: per-shard metrics observation on the untraced
// sharded hot path must stay 0 allocs/op — the observer is a plain
// function call into lock-free histogram/counter atomics.
func BenchmarkSearchIntoSteadyStateShardedMetricsOn(b *testing.B) {
	sx, verify := shardedObsSetup(b, 1)
	var dst []resinfer.Neighbor
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, err = sx.SearchInto(dst[:0], benchQs[i%len(benchQs)], benchK, resinfer.DDCRes, 80)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	verify()
}

// TestSearchIntoShardedMetricsOnZeroAlloc enforces the same bar in the
// plain test suite (and under CI), without needing -bench: with a shard
// observer installed and no trace attached, steady-state sharded search
// performs zero heap allocations per query.
func TestSearchIntoShardedMetricsOnZeroAlloc(t *testing.T) {
	allocguard.SkipIfInstrumented(t)
	sx, _ := shardedObsSetup(t, 1)
	if allocs := shardedSearchAllocs(t, sx); allocs != 0 {
		t.Fatalf("sharded search with metrics on: %v allocs/op, want 0", allocs)
	}
}

// TestSearchIntoShardedParallelFanOutAllocs pins what the parallel plain
// path costs: at SearchWorkers 2 the caller probes shards next to one
// helper goroutine, and that spawn (its closure; the goroutine itself is
// recycled) is all a query allocates — not a semaphore channel plus one
// goroutine per shard.
func TestSearchIntoShardedParallelFanOutAllocs(t *testing.T) {
	allocguard.SkipIfInstrumented(t)
	sx, _ := shardedObsSetup(t, 2)
	allocs := shardedSearchAllocs(t, sx)
	t.Logf("%v allocs/op", allocs)
	if allocs > 2 {
		t.Fatalf("sharded search at SearchWorkers 2: %v allocs/op, want <= 2", allocs)
	}
}

// shardedSearchAllocs measures steady-state allocations per ddc-res
// SearchInto over the bench queries, pools warmed first.
func shardedSearchAllocs(t *testing.T, sx *resinfer.ShardedIndex) float64 {
	var dst []resinfer.Neighbor
	i := 0
	search := func() {
		var err error
		dst, _, err = sx.SearchInto(dst[:0], benchQs[i%len(benchQs)], benchK, resinfer.DDCRes, 80)
		i++
		if err != nil {
			t.Fatal(err)
		}
	}
	return allocguard.PerRun(200, func() {
		for n := 0; n < 8; n++ {
			search()
		}
	}, search)
}

// TestSearchIntoShardedHedgerInstalledZeroAlloc extends the bar to
// replicated serving: with a shard hedger armed (as every replica in a
// replication topology runs), the untraced, unhedged steady-state path
// must still perform zero heap allocations per query. Hedging machinery
// only engages on the deadline-aware path, so arming it must cost the
// plain path nothing.
func TestSearchIntoShardedHedgerInstalledZeroAlloc(t *testing.T) {
	allocguard.SkipIfInstrumented(t)
	sx, _ := shardedObsSetup(t, 1)
	sx.SetShardHedger(func(ctx context.Context, shard int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
		t.Error("hedger fired on the plain (non-ctx) search path")
		return nil, resinfer.SearchStats{}, nil
	}, time.Millisecond)
	if allocs := shardedSearchAllocs(t, sx); allocs != 0 {
		t.Fatalf("sharded search with hedger installed: %v allocs/op, want 0", allocs)
	}
}
