package resinfer_test

// Chaos tests for the deadline-aware sharded fan-out: injected stuck,
// failing and panicking shards must degrade a search to a partial
// result within the deadline instead of stalling or killing the
// process. All of these run under -race in CI's chaos leg.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/fault"
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
