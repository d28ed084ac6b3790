package resinfer_test

// Hedged fan-out tests: a slow or failed shard probe is re-issued to a
// peer replica (here: a second identical index standing in for one) and
// the first good answer wins, so replicated serving turns stragglers
// into hedge wins and partial results into full ones. These run under
// -race in CI's chaos leg alongside the deadline fan-out tests.

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/fault"
)

var errShardDown = errors.New("injected: shard down")

// peerHedger hedges onto a second, identically built index — the
// in-process stand-in for a replica answering /internal/shard/search.
func peerHedger(peer *resinfer.ShardedIndex) resinfer.ShardHedger {
	return func(ctx context.Context, shard int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
		if err := ctx.Err(); err != nil {
			return nil, resinfer.SearchStats{}, err
		}
		return peer.SearchShardGlobal(shard, q, k, mode, budget)
	}
}

func sortedIDs(ns []resinfer.Neighbor) []int {
	ids := make([]int, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	sort.Ints(ids)
	return ids
}

// TestHedgeWinsOnSlowShard is the tail-at-scale acceptance path: one
// shard's local probe is stuck, the hedge fires after the hedge delay,
// the peer answers, and the query completes fully — no partial result —
// with the hedge counted as a win.
func TestHedgeWinsOnSlowShard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	peer := buildChaosSharded(t, 4)
	q := chaosQuery()
	want, _, err := sx.SearchInto(nil, q, 10, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	sx.SetShardHedger(peerHedger(peer), 5*time.Millisecond)
	// Limit 1: only the first evaluation — the local probe of shard 2 —
	// stalls; the peer's probe of the same shard runs clean.
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 2, Delay: 2 * time.Second, Limit: 1,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ns, st, err := sx.SearchCtx(ctx, nil, q, 10, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("hedged search failed: %v", err)
	}
	if st.ShardsOK != 4 || st.ShardsFailed != 0 {
		t.Fatalf("coverage: ok=%d failed=%d, want 4/0 (hedge must rescue the slow shard)", st.ShardsOK, st.ShardsFailed)
	}
	wantIDs, gotIDs := sortedIDs(want), sortedIDs(ns)
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("hedged result diverges from unhedged: got %v, want %v", gotIDs, wantIDs)
		}
	}
	hedged, wins := sx.HedgeStats()
	if hedged < 1 || wins < 1 {
		t.Fatalf("hedge counters: hedged=%d wins=%d, want >= 1 each", hedged, wins)
	}
}

// TestHedgeRescuesFailedShard: a shard whose local probe fails outright
// is hedged immediately (no waiting for the hedge delay), so the query
// still returns full coverage.
func TestHedgeRescuesFailedShard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	peer := buildChaosSharded(t, 4)
	// A long hedge delay proves the failure-triggered hedge does not wait
	// for the timer.
	sx.SetShardHedger(peerHedger(peer), time.Second)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 1, Err: errShardDown, Limit: 1,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 10, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("hedged search failed: %v", err)
	}
	if st.ShardsOK != 4 || st.ShardsFailed != 0 {
		t.Fatalf("coverage: ok=%d failed=%d, want 4/0", st.ShardsOK, st.ShardsFailed)
	}
	if d := time.Since(t0); d > 500*time.Millisecond {
		t.Fatalf("failure-triggered hedge waited %v — it must fire immediately, not after the hedge delay", d)
	}
	if hedged, wins := sx.HedgeStats(); hedged < 1 || wins < 1 {
		t.Fatalf("hedge counters: hedged=%d wins=%d, want >= 1 each", hedged, wins)
	}
}

// TestPartialOnlyWhenAllReplicasFail: with the peer failing too, the
// shard is genuinely down everywhere and only then does the query go
// partial.
func TestPartialOnlyWhenAllReplicasFail(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	peer := buildChaosSharded(t, 4)
	sx.SetShardHedger(peerHedger(peer), time.Millisecond)
	// No Limit: the injection hits the local probe and the peer's probe
	// alike — every replica of shard 3 is down.
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 3, Err: errShardDown,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ns, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 10, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("partial search errored: %v", err)
	}
	if st.ShardsOK != 3 || st.ShardsFailed != 1 {
		t.Fatalf("coverage: ok=%d failed=%d, want 3/1 (partial only when all replicas fail)", st.ShardsOK, st.ShardsFailed)
	}
	if len(ns) == 0 {
		t.Fatal("partial result empty")
	}
}

// TestHedgeLoserCancelled: the local probes win (nothing injected), so
// every fired hedge must have its context cancelled promptly.
func TestHedgeLoserCancelled(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 2)
	cancelled := make(chan struct{}, 2)
	hedger := func(ctx context.Context, shard int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
		<-ctx.Done() // a slow peer: only returns once cancelled
		cancelled <- struct{}{}
		return nil, resinfer.SearchStats{}, ctx.Err()
	}
	// 1ns delay: the hedge timer fires before the locals finish, so the
	// hedges launch and then lose.
	sx.SetShardHedger(hedger, time.Nanosecond)
	// Slow the locals slightly so the timer always beats them.
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 20 * time.Millisecond, Limit: 2,
	})()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 10, resinfer.Exact, 0, nil)
	if err != nil || st.ShardsOK != 2 {
		t.Fatalf("search: ok=%d err=%v, want 2/nil (locals win)", st.ShardsOK, err)
	}
	hedged, wins := sx.HedgeStats()
	if hedged < 1 {
		t.Fatalf("hedge never fired (hedged=%d)", hedged)
	}
	if wins != 0 {
		t.Fatalf("blocked hedger recorded %d wins, want 0", wins)
	}
	for i := uint64(0); i < hedged; i++ {
		select {
		case <-cancelled:
		case <-time.After(2 * time.Second):
			t.Fatalf("hedge %d of %d never saw its context cancelled", i+1, hedged)
		}
	}
}

// TestHedgeDisabledWithoutPositiveDelay: an armed hedger with a
// non-positive delay must never fire — the operator's off switch.
func TestHedgeDisabledWithoutPositiveDelay(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 2)
	peer := buildChaosSharded(t, 2)
	sx.SetShardHedger(peerHedger(peer), 0)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 0, Err: errShardDown, Limit: 1,
	})()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, st, err := sx.SearchCtx(ctx, nil, chaosQuery(), 5, resinfer.Exact, 0, nil)
	if err != nil {
		t.Fatalf("partial search errored: %v", err)
	}
	if st.ShardsFailed != 1 {
		t.Fatalf("failed=%d, want 1 (hedging disabled, failure stays a failure)", st.ShardsFailed)
	}
	if hedged, _ := sx.HedgeStats(); hedged != 0 {
		t.Fatalf("hedged=%d with hedging disabled, want 0", hedged)
	}
}

// TestSearchShardGlobalMatchesFanout: the peer-side probe must produce
// exactly the per-shard contribution the local fan-out would merge.
func TestSearchShardGlobalMatchesFanout(t *testing.T) {
	sx := buildChaosSharded(t, 3)
	q := chaosQuery()
	want, _, err := sx.SearchInto(nil, q, 10, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Merge the three per-shard global contributions by key and take the
	// top 10: it must equal the fan-out's answer.
	var all []resinfer.Neighbor
	for s := 0; s < 3; s++ {
		ns, st, err := sx.SearchShardGlobal(s, q, 10, resinfer.Exact, 0)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if st.Comparisons == 0 {
			t.Fatalf("shard %d reported no work", s)
		}
		all = append(all, ns...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	all = all[:10]
	got, want2 := sortedIDs(all), sortedIDs(want)
	for i := range want2 {
		if got[i] != want2[i] {
			t.Fatalf("per-shard global merge diverges: got %v, want %v", got, want2)
		}
	}
	if _, _, err := sx.SearchShardGlobal(7, q, 10, resinfer.Exact, 0); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, _, err := sx.SearchShardGlobal(0, q[:3], 10, resinfer.Exact, 0); err == nil {
		t.Fatal("bad query dim accepted")
	}
}

// TestHedgerConcurrentSearches exercises the hedged fan-out under
// concurrent load for the -race leg: mixed slow and failing shards,
// every query must still come back full.
func TestHedgerConcurrentSearches(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildChaosSharded(t, 4)
	peer := buildChaosSharded(t, 4)
	sx.SetShardHedger(peerHedger(peer), 2*time.Millisecond)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 1, Delay: 10 * time.Millisecond, P: 0.5,
	})()
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 2, Err: errShardDown, P: 0.3,
	})()
	fault.Seed(42)

	const goroutines = 8
	const perG = 20
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, 32)
			for i := 0; i < perG; i++ {
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, _, err := sx.SearchCtx(ctx, nil, q, 5, resinfer.Exact, 0, nil)
				cancel()
				if err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatalf("concurrent hedged search failed: %v", err)
		}
	}
}
