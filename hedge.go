package resinfer

import (
	"context"
	"errors"
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

// errBadHedge fails a hedge whose answer no shard could have given.
var errBadHedge = errors.New("resinfer: hedge answer is not a shard's top k")

// checkHedge returns errBadHedge unless ns could be one shard's answer to
// a query for k neighbours: at most k of them, no negative ID, no NaN key,
// where keys are squared distances (L2, Cosine) no negative one, and on an
// immutable index no ID at or past Len, a row it does not hold. The merge
// would otherwise put such a row at the top of a served answer. A mutable
// index accepts IDs past its rows: a peer replica may be ahead of it.
func (sx *ShardedIndex) checkHedge(ns []Neighbor, k int) error {
	sq := sx.metric != InnerProduct
	for _, n := range ns {
		if len(ns) > k || n.ID < 0 || sx.mut == nil && n.ID >= sx.n || n.Distance != n.Distance || sq && n.Distance < 0 {
			return errBadHedge
		}
	}
	return nil
}

// SetShardHedger installs fn as the shard hedger with the given initial
// hedge delay and arms hedged fan-out on the deadline-aware search
// paths (SearchCtx, SearchBatchCtx): a shard that has not answered
// after the hedge delay — or whose probe fails outright — has its query
// re-issued through fn, and the first good answer wins. The plain paths
// (Search, SearchInto, SearchBatch) are untouched, so the unhedged
// steady state stays allocation-free. Install before serving begins;
// the delay may be retuned live with SetHedgeDelay. While the delay is
// <= 0 no query is hedged, failure-triggered retries included.
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
	if err := checkQuery(q, sx.userDim); err != nil {
		return nil, SearchStats{}, err
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
