package resinfer_test

// Chaos tests for the deadline-aware sharded fan-out: injected stuck,
// failing and panicking shards must degrade a search to a partial
// result within the deadline instead of stalling or killing the
// process. All of these run under -race in CI's chaos leg.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/fault"
	"resinfer/internal/server"
)

func buildChaosSharded(t testing.TB, nShards int) *resinfer.ShardedIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	data := make([][]float32, 4000)
	for i := range data {
		row := make([]float32, 32)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		data[i] = row
	}
	sx, err := resinfer.NewSharded(data, resinfer.Flat, nShards,
		&resinfer.ShardOptions{Index: &resinfer.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

func chaosQuery() []float32 {
	q := make([]float32, 32)
	for j := range q {
		q[j] = 0.25
	}
	return q
}

// TestDeadlineFanOutStuckShard is the tentpole acceptance test: one
// shard stuck far past the request deadline must not stall the fan-out.
// The search returns within the deadline with the other shards' merged
// results, ShardsOK/ShardsFailed reporting the coverage.
func TestDeadlineFanOutStuckShard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 1, Delay: 2 * time.Second,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	ns, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 10, resinfer.Exact, 0, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("partial search failed: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("fan-out stalled %v behind the stuck shard (deadline 100ms)", elapsed)
	}
	if st.ShardsOK != 3 || st.ShardsFailed != 1 {
		t.Fatalf("coverage = %d ok / %d failed, want 3/1", st.ShardsOK, st.ShardsFailed)
	}
	if len(ns) != 10 {
		t.Fatalf("partial search returned %d hits, want 10", len(ns))
	}
}

// TestDeadlineFanOutFailedShard: an erroring shard is skipped and
// counted, not fatal — and with no deadline pressure the query still
// completes promptly because the error returns immediately.
func TestDeadlineFanOutFailedShard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 2, Err: errors.New("disk on fire"),
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ns, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("partial search failed: %v", err)
	}
	if st.ShardsOK != 3 || st.ShardsFailed != 1 {
		t.Fatalf("coverage = %d ok / %d failed, want 3/1", st.ShardsOK, st.ShardsFailed)
	}
	if len(ns) != 5 {
		t.Fatalf("got %d hits, want 5", len(ns))
	}
}

// TestDeadlineFanOutPanicIsolation: a panicking shard becomes a
// per-shard error (partial result), never process death.
func TestDeadlineFanOutPanicIsolation(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 0, Panic: "shard exploded",
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("panic escaped isolation: %v", err)
	}
	if st.ShardsOK != 3 || st.ShardsFailed != 1 {
		t.Fatalf("coverage = %d ok / %d failed, want 3/1", st.ShardsOK, st.ShardsFailed)
	}
}

// TestPanicIsolationWithoutCtx: the plain (nil-ctx) path also survives a
// panicking shard, reporting it as a regular shard error.
func TestPanicIsolationWithoutCtx(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 0, Panic: "shard exploded",
	})()

	_, err := sx.Search(chaosQuery(), 5, resinfer.Exact, 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want shard-panic error", err)
	}
}

// TestDeadlineFanOutAllShardsLost: when every shard misses the deadline
// the search reports the context error rather than a fabricated empty
// result.
func TestDeadlineFanOutAllShardsLost(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 2 * time.Second,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("all-lost fan-out did not return at the deadline")
	}
	if st.ShardsOK != 0 || st.ShardsFailed != 4 {
		t.Fatalf("coverage = %d ok / %d failed, want 0/4", st.ShardsOK, st.ShardsFailed)
	}
}

// TestDeadlineFanOutCleanPathUnchanged: with no faults armed the ctx
// path returns exactly the same answer as the plain path and reports
// full coverage.
func TestDeadlineFanOutCleanPathUnchanged(t *testing.T) {
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	q := chaosQuery()
	want, err := sx.Search(q, 10, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, st, err := sx.SearchCtx(ctx, nil, q, 10, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsOK != 4 || st.ShardsFailed != 0 {
		t.Fatalf("coverage = %d ok / %d failed, want 4/0", st.ShardsOK, st.ShardsFailed)
	}
	if len(got) != len(want) {
		t.Fatalf("ctx path returned %d hits, plain path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs: ctx %+v plain %+v", i, got[i], want[i])
		}
	}
}

// TestSearchBatchCtxPartial: the batched deadline path reports per-query
// partial coverage and abandoned batches fail fast once ctx expires.
func TestSearchBatchCtxPartial(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 3, Delay: 2 * time.Second,
	})()

	queries := make([][]float32, 8)
	for i := range queries {
		queries[i] = chaosQuery()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err := sx.SearchBatchCtx(ctx, queries, 5, resinfer.Exact, 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("batch stalled behind the stuck shard")
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("query %d failed: %v", i, r.Err)
		}
		if r.Stats.ShardsOK != 3 || r.Stats.ShardsFailed != 1 {
			t.Fatalf("query %d coverage = %d/%d, want 3/1", i, r.Stats.ShardsOK, r.Stats.ShardsFailed)
		}
	}
}

// TestDeadlineFanOutStragglerSafeReuse hammers the abandoned-straggler
// path: many sequential deadline-exceeding queries against a slow shard
// while other goroutines search normally — under -race this proves the
// abandoned scratch is never handed back to the pool while a straggler
// still owns it.
func TestDeadlineFanOutStragglerSafeReuse(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 1, Delay: 30 * time.Millisecond,
	})()

	stop := make(chan struct{})
	go func() {
		// Concurrent full-deadline searches recycle pool scratch while the
		// short-deadline loop abandons stragglers.
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
			cancel()
		}
	}()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
		cancel()
		if err == nil && st.ShardsFailed == 0 {
			t.Fatalf("iteration %d: stuck shard reported healthy", i)
		}
	}
	close(stop)
}

// buildChaosMutable builds a small WAL-backed mutable index for the
// degraded-mode tests.
func buildChaosMutable(t testing.TB, walDir string) *resinfer.MutableIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([][]float32, 400)
	for i := range data {
		row := make([]float32, 16)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		data[i] = row
	}
	mx, err := resinfer.NewMutable(data, resinfer.Flat, 2, &resinfer.MutableOptions{
		WALDir:             walDir,
		DisableAutoCompact: true,
		Index:              &resinfer.Options{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// TestDegradedOnPersistentFsyncFailure: a persistent injected fsync
// failure flips the index fail-stop read-only — mutations report
// ErrDegraded, searches keep serving — and ClearDegraded re-arms
// writes once the fault is gone, with every acknowledged mutation
// surviving a WAL recovery round-trip.
func TestDegradedOnPersistentFsyncFailure(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	dir := t.TempDir()
	mx := buildChaosMutable(t, dir)
	defer mx.Close()

	v := make([]float32, 16)
	v[0] = 1
	ackedID, err := mx.Add(v)
	if err != nil {
		t.Fatal(err)
	}

	disarm := fault.Inject(fault.Injection{Site: fault.SiteWALFsync, Err: errors.New("disk gone")})
	if _, err := mx.Add(v); !errors.Is(err, resinfer.ErrDegraded) {
		t.Fatalf("persistent fsync failure: got %v, want ErrDegraded", err)
	}
	if mx.Degraded() == nil {
		t.Fatal("index must report degraded")
	}
	// Later mutations are refused without touching the WAL again.
	before := fault.Hits(fault.SiteWALFsync)
	if _, err := mx.Upsert(9999, v); !errors.Is(err, resinfer.ErrDegraded) {
		t.Fatalf("mutation while degraded: got %v, want ErrDegraded", err)
	}
	if _, err := mx.Delete(ackedID); !errors.Is(err, resinfer.ErrDegraded) {
		t.Fatalf("delete while degraded: got %v, want ErrDegraded", err)
	}
	if got := fault.Hits(fault.SiteWALFsync); got != before {
		t.Fatalf("degraded mutations must not hit the WAL: %d extra hits", got-before)
	}

	// Searches are unaffected by degradation.
	ns, err := mx.Search(v, 5, resinfer.Exact, 0)
	if err != nil || len(ns) != 5 {
		t.Fatalf("search while degraded: %d hits, err %v", len(ns), err)
	}

	// Clearing while the fault persists re-arms, and the next mutation
	// degrades again.
	if err := mx.ClearDegraded(); err != nil {
		t.Fatalf("clear degraded: %v", err)
	}
	if _, err := mx.Add(v); !errors.Is(err, resinfer.ErrDegraded) {
		t.Fatalf("mutation with fault still armed: got %v, want ErrDegraded", err)
	}

	// Fault fixed: clear succeeds and writes flow again.
	disarm()
	if err := mx.ClearDegraded(); err != nil {
		t.Fatalf("clear degraded after fix: %v", err)
	}
	if mx.Degraded() != nil {
		t.Fatal("degraded state must clear")
	}
	v2 := make([]float32, 16)
	v2[1] = 2
	acked2, err := mx.Add(v2)
	if err != nil {
		t.Fatalf("mutation after recovery: %v", err)
	}

	// The acknowledged mutations survive a recovery round-trip: rebuild
	// the same base and let NewMutable replay the log (the checkpoint-less
	// recovery path). The fsync-failed record may legitimately replay too
	// (its durability was unknown when it was rejected), so assert
	// presence of the acknowledged rows, not an exact count.
	lenBefore := mx.Len()
	mx.Close()
	mx2 := buildChaosMutable(t, dir)
	defer mx2.Close()
	if mx2.Len() < lenBefore {
		t.Fatalf("recovered %d rows, want >= %d", mx2.Len(), lenBefore)
	}
	ns, err = mx2.Search(v2, 1, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].ID != acked2 {
		t.Fatalf("acknowledged post-recovery row %d lost after replay: got %+v", acked2, ns)
	}
	// The pre-degradation row shares its vector with the replayed
	// unknown-durability record, so look for its ID among the closest few.
	ns, err = mx2.Search(v, 3, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range ns {
		if n.ID == ackedID {
			found = true
		}
	}
	if !found {
		t.Fatalf("acknowledged pre-degradation row %d lost after replay: got %+v", ackedID, ns)
	}
}

// TestTransientAppendFaultRetried: an append fault bounded below the
// retry budget is absorbed in-line — the mutation succeeds and the
// index never degrades.
func TestTransientAppendFaultRetried(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	mx := buildChaosMutable(t, t.TempDir())
	defer mx.Close()

	defer fault.Inject(fault.Injection{
		Site: fault.SiteWALAppend, Err: errors.New("flaky"), Limit: 2,
	})()
	v := make([]float32, 16)
	v[2] = 3
	if _, err := mx.Add(v); err != nil {
		t.Fatalf("mutation with transient fault: %v", err)
	}
	if mx.Degraded() != nil {
		t.Fatalf("transient fault must not degrade: %v", mx.Degraded())
	}
}

// TestCompactFaultIsolated: an injected compaction-build failure is
// surfaced by Compact without corrupting the serving state; once the
// fault clears, compaction succeeds over the same pending segments.
func TestCompactFaultIsolated(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	mx := buildChaosMutable(t, t.TempDir())
	defer mx.Close()

	v := make([]float32, 16)
	for i := 0; i < 8; i++ {
		v[3] = float32(i)
		if _, err := mx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	disarm := fault.Inject(fault.Injection{Site: fault.SiteCompactBuild, Err: errors.New("oom")})
	if _, err := mx.Compact(); err == nil {
		t.Fatal("want injected compaction error")
	}
	ns, err := mx.Search(v, 5, resinfer.Exact, 0)
	if err != nil || len(ns) != 5 {
		t.Fatalf("search after failed compaction: %d hits, err %v", len(ns), err)
	}
	disarm()
	if n, err := mx.Compact(); err != nil || n == 0 {
		t.Fatalf("compaction after fault cleared: n=%d err=%v", n, err)
	}
}

// TestMutableCloseRacesInFlight: Close racing in-flight Search and Add
// calls must be free of data races and panics (run under -race); the
// index keeps answering searches after Close.
func TestMutableCloseRacesInFlight(t *testing.T) {
	mx := buildChaosMutable(t, t.TempDir())
	q := make([]float32, 16)
	q[0] = 0.5

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := mx.Search(q, 5, resinfer.Exact, 0); err != nil {
					t.Errorf("search during close: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := make([]float32, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v[4] = float32(w*1000 + i)
				// After Close the WAL refuses appends; any error is fine as
				// long as the race detector stays quiet.
				_, _ = mx.Add(v)
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	mx.Close()
	close(stop)
	wg.Wait()
	if _, err := mx.Search(q, 5, resinfer.Exact, 0); err != nil {
		t.Fatalf("search after close: %v", err)
	}
}

// TestHugeKClampedToRows: a k past the rows an index holds, up to
// math.MaxInt, answers every row in ascending distance instead of sizing a
// queue by k — which panicked (makeslice) on an Index and ran a sharded
// index out of memory. Over POST /search one request could do either to
// the server. IVF probes every list (budget n) so that every row is
// reachable.
func TestHugeKClampedToRows(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	data := make([][]float32, 300)
	for i := range data {
		data[i] = make([]float32, 16)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	q := data[7]
	huge := []int{len(data) + 1, 1 << 40, math.MaxInt}
	check := func(label string, n, k int, got []resinfer.Neighbor, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s k=%d: %v", label, k, err)
		}
		if len(got) != min(k, n) {
			t.Fatalf("%s k=%d: %d neighbours, want %d", label, k, len(got), min(k, n))
		}
		seen := map[int]bool{}
		for i, nb := range got {
			if seen[nb.ID] || (i > 0 && nb.Distance < got[i-1].Distance) {
				t.Fatalf("%s k=%d: hit %d (%+v) repeated or out of order", label, k, i, nb)
			}
			seen[nb.ID] = true
		}
	}

	for _, kind := range []resinfer.IndexKind{resinfer.Flat, resinfer.IVF, resinfer.HNSW} {
		ix, err := resinfer.New(data, kind, &resinfer.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Enable(resinfer.DDCRes, nil); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
			for _, k := range huge {
				got, err := ix.Search(q, k, mode, len(data))
				check(fmt.Sprintf("Index %v %s", kind, mode), len(data), k, got, err)
			}
		}
	}

	sx, err := resinfer.NewSharded(data, resinfer.HNSW, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range huge {
		got, err := sx.Search(q, k, resinfer.Exact, 0)
		check("ShardedIndex", len(data), k, got, err)
	}

	mx, err := resinfer.NewMutable(data, resinfer.HNSW, 2, &resinfer.MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	for i := 0; i < 5; i++ {
		if _, err := mx.Add(data[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{3, 301} {
		if _, err := mx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range huge {
		got, err := mx.Search(q, k, resinfer.Exact, 0)
		check("MutableIndex", mx.Len(), k, got, err)
	}

	srv := server.New(sx, server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, k := range huge {
		body, _ := json.Marshal(map[string]any{"query": q, "k": k})
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Neighbors []resinfer.Neighbor `json:"neighbors"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /search k=%d: status %d", k, resp.StatusCode)
		}
		check("POST /search", len(data), k, out.Neighbors, err)
	}
}

// TestNonFiniteQueryRejected: a query with a NaN or ±Inf component is an
// ErrInvalidVector at every search entry. Before, every scan (Flat, IVF,
// HNSW past ScanFrom, a sharded or mutable index) answered it with no
// neighbours and a nil error, and a walk (HNSW at budget 10 over 1 000
// rows) with NaN or +Inf distances.
func TestNonFiniteQueryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	data := make([][]float32, 1000)
	for i := range data {
		data[i] = make([]float32, 16)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	check := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, resinfer.ErrInvalidVector) {
			t.Fatalf("%s: error %v, want ErrInvalidVector", label, err)
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		q := append([]float32(nil), data[7]...)
		q[5] = bad
		for _, kind := range []resinfer.IndexKind{resinfer.Flat, resinfer.IVF, resinfer.HNSW} {
			ix, err := resinfer.New(data, kind, &resinfer.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Enable(resinfer.DDCRes, nil); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []resinfer.Mode{resinfer.Exact, resinfer.DDCRes} {
				for _, budget := range []int{10, 200} {
					label := fmt.Sprintf("Index %v %s budget %d, component %v", kind, mode, budget, bad)
					_, err := ix.Search(q, 10, mode, budget)
					check(label, err)
					_, err = ix.SearchBatch([][]float32{data[0], q}, 10, mode, budget, 1)
					check(label+" batch", err)
				}
			}
		}

		sx, err := resinfer.NewSharded(data, resinfer.HNSW, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sx.Search(q, 10, resinfer.Exact, 0)
		check("ShardedIndex", err)
		_, _, err = sx.SearchCtx(context.Background(), nil, q, 10, resinfer.Exact, 0, nil)
		check("ShardedIndex ctx", err)
		_, err = sx.SearchBatch([][]float32{q}, 10, resinfer.Exact, 0, 1)
		check("ShardedIndex batch", err)
		_, _, _, err = sx.GroundTruthSearch(nil, nil, q, 10)
		check("ShardedIndex ground truth", err)

		mx, err := resinfer.NewMutable(data, resinfer.HNSW, 2, &resinfer.MutableOptions{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mx.Add(data[3]); err != nil {
			t.Fatal(err)
		}
		_, err = mx.Search(q, 10, resinfer.Exact, 0)
		check("MutableIndex", err)
		_, err = mx.SearchBatch([][]float32{q}, 10, resinfer.Exact, 0, 1)
		check("MutableIndex batch", err)
		_, _, _, err = mx.GroundTruthSearch(nil, nil, q, 10)
		check("MutableIndex ground truth", err)
		mx.Close()
	}
}
