package resinfer

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// This file is the index-side half of replicated serving: the hedge
// hook the deadline-aware fan-out fires at a slow or failed shard, and
// the single-shard probe a peer replica answers those hedges with. The
// replica set itself — health-checked peers, the HTTP transport, the
// catch-up follower — lives in internal/replica; it plugs in here
// through SetShardHedger so the index stays transport-agnostic.

// ShardHedger re-issues one shard's query to a peer replica and returns
// that shard's contribution in global, merge-ready form: Neighbor.ID is
// the global row ID and Neighbor.Distance the cross-shard merge key —
// exactly what SearchShardGlobal produces on the peer. The fan-out
// cancels ctx when the local probe wins; implementations must abort
// their remote call promptly.
type ShardHedger func(ctx context.Context, shard int, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error)

// SetShardHedger installs fn as the shard hedger with the given initial
// hedge delay and arms hedged fan-out on the deadline-aware search
// paths (SearchCtx, SearchBatchCtx): a shard that has not answered
// after the hedge delay — or whose probe fails outright — has its query
// re-issued through fn, and the first good answer wins. The plain paths
// (Search, SearchInto, SearchBatch) are untouched, so the unhedged
// steady state stays allocation-free. Install before serving begins;
// the delay may be retuned live with SetHedgeDelay. A delay <= 0 leaves
// the hedger armed for failure-triggered retries off (hedging fully
// disabled) until a positive delay is set.
func (sx *ShardedIndex) SetShardHedger(fn ShardHedger, delay time.Duration) {
	sx.hedger = fn
	sx.hedgeDelayNs.Store(int64(delay))
}

// SetHedgeDelay retunes the per-shard hedge delay: queries read it
// atomically, so an adaptive controller may track the observed shard
// p95 while serving runs. A delay <= 0 disables hedging.
func (sx *ShardedIndex) SetHedgeDelay(d time.Duration) {
	sx.hedgeDelayNs.Store(int64(d))
}

// HedgeDelay returns the current per-shard hedge delay.
func (sx *ShardedIndex) HedgeDelay() time.Duration {
	return time.Duration(sx.hedgeDelayNs.Load())
}

// HedgeStats returns how many shard probes were hedged and how many
// hedges delivered the shard's first good answer — the counters behind
// resinfer_hedged_total and resinfer_hedge_wins_total.
func (sx *ShardedIndex) HedgeStats() (hedged, wins uint64) {
	return sx.hedged.Load(), sx.hedgeWins.Load()
}

// SearchShardGlobal probes a single shard and returns its contribution
// in global, merge-ready form: IDs are global row IDs and Distance is
// the cross-shard merge key (the negated native score for InnerProduct,
// the internal squared distance otherwise). It is the peer-side half of
// hedged fan-out — a replica answers /internal/shard/search with it —
// and is also useful for shard-local diagnostics. The result slice is
// freshly allocated; this path trades allocations for isolation since
// it serves remote peers, not the local hot path.
func (sx *ShardedIndex) SearchShardGlobal(s int, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error) {
	if s < 0 || s >= len(sx.shards) {
		return nil, SearchStats{}, fmt.Errorf("resinfer: shard %d out of range [0,%d)", s, len(sx.shards))
	}
	if len(q) != sx.userDim {
		return nil, SearchStats{}, fmt.Errorf("resinfer: query dim %d, index expects %d", len(q), sx.userDim)
	}
	fs := sx.fanPool.Get().(*fanScratch)
	if err := sx.begin(fs, q, k, mode, budget); err != nil {
		sx.fanPool.Put(fs)
		return nil, SearchStats{}, err
	}
	sx.searchShardObs(s, fs)
	out := &fs.outs[s]
	if out.err != nil {
		err := fmt.Errorf("resinfer: shard %d: %w", s, out.err)
		out.err = nil
		sx.fanPool.Put(fs)
		return nil, SearchStats{}, err
	}
	ns := slices.Clone(out.ns)
	st := out.st
	sx.fanPool.Put(fs)
	return ns, st, nil
}
