package resinfer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/fault"
	"resinfer/internal/heap"
	"resinfer/internal/metric"
	"resinfer/internal/obs"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/stream"
)

// ShardStrategy selects how NewSharded assigns data rows to shards.
type ShardStrategy string

// Available shard assignment strategies.
const (
	// RoundRobin deals rows to shards in turn (row i → shard i mod N),
	// giving every shard a statistically identical slice of the data. This
	// is the default and the right choice when rows arrive in arbitrary
	// order.
	RoundRobin ShardStrategy = "round-robin"
	// Contiguous cuts the data into N equal consecutive blocks, preserving
	// any locality present in row order (e.g. time-ordered ingestion).
	Contiguous ShardStrategy = "contiguous"
)

// Version 3 embeds version 3 single-index streams, and a rotation the
// shards share is written once, by the first shard that holds it.
const shardMagic = "RESSHARD3"

// ShardOptions tunes sharded construction and serving. The zero value (or
// nil) gives round-robin assignment and GOMAXPROCS-wide fan-out.
type ShardOptions struct {
	// Strategy assigns rows to shards (default RoundRobin).
	Strategy ShardStrategy
	// SearchWorkers bounds how many shards one Search queries
	// concurrently (default GOMAXPROCS): the caller probes shards itself
	// next to SearchWorkers-1 helper goroutines, so 1 spawns nothing.
	SearchWorkers int
	// Index configures each sub-index; see Options.
	Index *Options
}

// ShardedIndex partitions a dataset across N sub-indexes and serves
// queries by fanning out to every shard and k-way-merging the per-shard
// results back into one globally-ranked answer. Each shard searches with
// the full (k, budget), so for the Exact mode the merge is lossless: the
// sharded result set equals the unsharded one. The rotation a comparator
// starts every query with (ddc-res, ddc-pca, adsampling) is trained once
// for the whole index, over the rows of all shards, so a fan-out rotates
// its query once, not once per shard. Like Index, a ShardedIndex is
// read-safe — after NewSharded and any Enable* calls return, any number of
// goroutines may search concurrently. Per-query fan-out state (the rotated
// query, per-shard result buffers, the merge queue) is pooled, so a sharded
// search allocates nothing at steady state apart from the caller-visible
// result slice and one goroutine spawn per search worker beyond the first.
type ShardedIndex struct {
	kind     IndexKind
	strategy ShardStrategy
	metric   MetricKind
	shards   []*Index
	globalID [][]int // globalID[s][localID] = row in the original data
	n        int
	userDim  int
	workers  int          // shard fan-out width for single-query Search
	qmetric  *metricState // the query-side metric transform, the same for every shard
	fanPool  sync.Pool
	enableMu sync.Mutex // one Enable* at a time

	// model is the PCA model trained over every shard's rows in shard
	// order where the index was built or loaded, each shard's model while
	// its rows are in no basis: the rotation the first PCA mode re-bases
	// the shards onto. A compaction of a shard in no basis clears it (the
	// rows it was trained on are gone), and Enable then trains one over the
	// rows of the moment. Guarded like the shards (enableMu, and mut.mu on
	// a mutable index).
	model *pca.Model

	// segs holds every shard's segments (see shardSeg): on an index that
	// never mutates, an empty memtable and a nil row mask each, so every
	// shard answers through one probe.
	segs []*shardSeg

	// mut holds the writer state of a mutable index (the ID allocator,
	// ownership, the WAL). nil on an immutable index.
	mut *mutState

	// shardObs, when non-nil, receives every shard probe's duration and
	// work counters — the always-on metrics hook of internal/server. It
	// must be installed before searches begin (SetShardObserver) and is
	// nil-cheap: the untraced, unobserved fan-out does not even read the
	// clock.
	shardObs func(shard int, d time.Duration, st SearchStats)

	// hedger, when non-nil, re-issues a slow or failed shard probe to a
	// peer replica (see SetShardHedger; deadline-aware fan-out only).
	// Installed before serving begins, like shardObs. hedgeDelayNs is
	// the per-shard hedge delay in nanoseconds — atomic because an
	// adaptive controller retunes it live from the observed p95; a value
	// <= 0 disables hedging for the query that reads it. hedged and
	// hedgeWins back resinfer_hedged_total / resinfer_hedge_wins_total.
	hedger       ShardHedger
	hedgeDelayNs atomic.Int64
	hedged       atomic.Uint64
	hedgeWins    atomic.Uint64
}

// SetShardObserver installs fn as the per-shard probe observer: it is
// called once per shard per query with the probe's wall duration and
// the shard's SearchStats. Install it before serving begins — the field
// is read without synchronization on the search path. fn must be fast
// and must not allocate if the caller relies on the allocation-free
// steady state.
func (sx *ShardedIndex) SetShardObserver(fn func(shard int, d time.Duration, st SearchStats)) {
	sx.shardObs = fn
}

// shardOut is one shard's contribution before the merge. The ns slice holds
// global IDs and merge keys (see mergeReady) and is pooled and reused across
// queries; rq is the probe's combining queue (base hits + memtable hits),
// allocated lazily. t0 and d time a probe that is observed or traced.
// done is only used by the deadline-aware fan-out: it is
// written exclusively by the coordinating goroutine (after receiving the
// shard's completion over a channel, which orders the slot's other
// fields), and marks slots that are safe to merge — an abandoned
// straggler may still be writing its own slot.
type shardOut struct {
	ns   []Neighbor
	rq   *heap.ResultQueue
	st   SearchStats
	err  error
	done bool
	t0   time.Time
	d    time.Duration
}

// fanScratch is the pooled per-query fan-out state. houts holds each
// shard's hedge-probe slot (written only by the hedge goroutine the
// coordinator launched for that shard, ordered by the completion
// channel exactly like outs); complete marks shards answered by either
// path; cancels aborts a shard's in-flight hedge when the local probe
// wins.
type fanScratch struct {
	outs     []shardOut
	houts    []shardOut
	complete []bool
	cancels  []context.CancelFunc
	rq       *heap.ResultQueue
	seen     map[int]struct{} // merge dedup, reused across queries

	// The query every probe of this fan runs: q a copy of the caller's
	// (a probe abandoned at a deadline, or a losing hedge, may still read
	// it after the search returns), tq in the internal space (one metric
	// transform for all shards: q itself for L2, tqbuf otherwise). flat
	// walks each shard's Flat view instead of its structure (ground
	// truth); timed times every probe into its slot (a traced fan).
	q, tq, tqbuf []float32
	k, budget    int
	mode         Mode
	flat, timed  bool
	next         atomic.Int32   // next unprobed shard of the plain fan-out
	helpers      sync.WaitGroup // the plain fan-out's helper goroutines

	// The rotate-once slot: tq projected by the first probe of the fan
	// whose comparator has a model (see prime).
	rot rotSlot
}

// rotSlot is tq projected into rq (cent: scratch) through a model whose
// Rotation is key. claimed goes to the probe that fills it; key and rq may
// be read once ready is set.
type rotSlot struct {
	claimed, ready atomic.Bool
	key            *store.Matrix
	rq, cent       []float32
}

// prime resets ev, whose comparator's Model is model, for fs's query. A fan
// is one mode, and every shard's comparator of a mode is built around one
// rotation, so the first probe to arrive projects the query into the slot
// and every later one resets from there. The slot is keyed by the rotation,
// not the model: each shard's model is its own Refit of the index's, and
// the refits share Mean and Rotation. A probe that arrives while the first
// is still projecting — the second worker of a parallel fan-out, started in
// the same microsecond — projects for itself: that takes as long as waiting
// would, and does not park a core that then needs a thread wake-up to come
// back. So does one whose rotation is not the slot's: an index assembled
// from shards that each trained their own. A fan projects once and, unless
// the first probe is held up mid-projection (descheduled, or stopped for a
// stack scan) while the others probe on, at most once more per extra
// worker, however many shards there are.
//
//resinfer:noalloc
func (fs *fanScratch) prime(ev core.ResettableEvaluator, model *pca.Model) error {
	slot := &fs.rot
	switch {
	case model == nil:
		return ev.Reset(fs.tq)
	case slot.claimed.CompareAndSwap(false, true):
		if err := model.ProjectInto(slot.rq, fs.tq, slot.cent); err != nil {
			return err // ready stays unset: the others project, and fail, themselves
		}
		slot.key = model.Rotation
		slot.ready.Store(true)
	case !slot.ready.Load() || slot.key != model.Rotation:
		return ev.Reset(fs.tq)
	}
	return ev.ResetRotated(slot.rq)
}

// begin readies fs for one query: the query parameters every probe reads,
// q moved into the internal space, an empty rotate-once slot, an untimed
// walk of each shard's structure. A k past the rows the index holds is
// clamped to them before any probe or merge sizes a queue by it.
//
//resinfer:noalloc
func (sx *ShardedIndex) begin(fs *fanScratch, q []float32, k int, mode Mode, budget int) (err error) {
	if n := max(sx.Len(), 1); k > n {
		k = n
	}
	fs.q, fs.k, fs.mode, fs.budget = append(fs.q[:0], q...), k, mode, budget
	fs.flat, fs.timed = false, false
	fs.rot.claimed.Store(false)
	fs.rot.ready.Store(false)
	fs.tq, err = sx.qmetric.transformInto(fs.tqbuf, fs.q)
	return err
}

// initFanPool readies a freshly assembled index to serve: the query-side
// metric, the fan-out pool, and every shard's (empty) segments.
func (sx *ShardedIndex) initFanPool() {
	n := len(sx.shards)
	dim := sx.shards[0].dim
	sx.segs = make([]*shardSeg, n)
	for s := range sx.segs {
		sx.segs[s] = &shardSeg{mem: stream.NewMemtable(sx.userDim)}
	}
	sx.qmetric = &metricState{kind: sx.metric}
	if sx.metric == InnerProduct {
		sx.qmetric.ip = &metric.IPTransform{Dim: sx.userDim}
	}
	sx.fanPool.New = func() any {
		return &fanScratch{
			outs:     make([]shardOut, n),
			houts:    make([]shardOut, n),
			complete: make([]bool, n),
			cancels:  make([]context.CancelFunc, n),
			rq:       heap.NewResultQueue(16),
			q:        make([]float32, 0, sx.userDim),
			tqbuf:    make([]float32, dim),
			rot:      rotSlot{rq: make([]float32, dim), cent: make([]float32, dim)},
		}
	}
}

// NewSharded builds nShards sub-indexes of the given kind over data
// (partitioned per opts.Strategy) in parallel. Row index in data remains
// the neighbor ID reported by searches, exactly as with New.
func NewSharded(data [][]float32, kind IndexKind, nShards int, opts *ShardOptions) (*ShardedIndex, error) {
	if len(data) == 0 || len(data[0]) == 0 {
		return nil, errors.New("resinfer: empty data")
	}
	if nShards <= 0 {
		return nil, fmt.Errorf("resinfer: shard count must be positive, got %d", nShards)
	}
	if nShards > len(data) {
		return nil, fmt.Errorf("resinfer: %d shards exceed %d data rows", nShards, len(data))
	}
	var o ShardOptions
	if opts != nil {
		o = *opts
	}
	if o.Strategy == "" {
		o.Strategy = RoundRobin
	}
	ids, err := partitionRows(len(data), nShards, o.Strategy)
	if err != nil {
		return nil, err
	}
	sx := &ShardedIndex{
		kind:     kind,
		strategy: o.Strategy,
		shards:   make([]*Index, nShards),
		globalID: ids,
		n:        len(data),
		userDim:  len(data[0]),
		workers:  o.SearchWorkers,
	}
	if sx.workers <= 0 {
		sx.workers = runtime.GOMAXPROCS(0)
	}
	ixo := o.Index.withDefaults()
	// Every shard ingests its rows and builds beside the one training of
	// the sharded model over all their rows, in shard order: the first
	// shard to ask for the model trains it once all have ingested, the
	// others wait for it.
	mats := make([]*store.Matrix, nShards)
	errs := make([]error, nShards)
	var ingested, built sync.WaitGroup
	ingested.Add(nShards)
	model := sync.OnceValue(func() *pca.Model {
		ingested.Wait()
		if slices.Contains(mats, nil) {
			return nil // a shard failed; NewSharded returns its error
		}
		return constructionModel(ixo.Seed, mats...)
	})
	for s := range ids {
		built.Add(1)
		go func(s int) {
			defer built.Done()
			gids := ids[s]
			mat, ms, err := ingest(len(gids), func(i int) (int, []float32) { return gids[i], data[gids[i]] }, ixo.Metric, 0)
			mats[s] = mat
			ingested.Done()
			if errs[s] = err; err == nil {
				sx.shards[s], errs[s] = buildIndex(mat, ms, nil, kind, ixo, model)
			}
		}(s)
	}
	built.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("resinfer: building shard %d: %w", s, err)
		}
	}
	sx.model = model()
	sx.metric = sx.shards[0].Metric()
	sx.initFanPool()
	return sx, nil
}

// SingleShard serves an already built (or loaded) Index through the
// sharded engine as its only shard: neighbor IDs are ix's row indices and
// results come back in ix's own order. Distance follows the sharded
// merge-key convention — ix's internal squared distance for L2 and Cosine,
// the negated inner product -ix.Score(n, q) for InnerProduct. ix is
// shared, not copied; enable comparators on either.
func SingleShard(ix *Index) *ShardedIndex {
	ids := make([]int, ix.Len())
	for i := range ids {
		ids[i] = i
	}
	sx := &ShardedIndex{
		kind:     ix.Kind(),
		strategy: RoundRobin,
		metric:   ix.Metric(),
		shards:   []*Index{ix},
		globalID: [][]int{ids},
		n:        ix.Len(),
		userDim:  ix.QueryDim(),
		workers:  1,
	}
	if _, basis := ix.rows(); basis == nil {
		sx.model = ix.model // trained on every row the index holds
	}
	sx.initFanPool()
	return sx
}

// partitionRows deals n rows to nShards shards and returns the ID table:
// ids[s][local] is the global row index of shard s's local row.
func partitionRows(n, nShards int, strategy ShardStrategy) ([][]int, error) {
	ids := make([][]int, nShards)
	switch strategy {
	case RoundRobin:
		per := (n + nShards - 1) / nShards
		for s := range ids {
			ids[s] = make([]int, 0, per)
		}
		for i := 0; i < n; i++ {
			ids[i%nShards] = append(ids[i%nShards], i)
		}
	case Contiguous:
		for s := range ids {
			lo := s * n / nShards
			hi := (s + 1) * n / nShards
			ids[s] = make([]int, hi-lo)
			for i := range ids[s] {
				ids[s][i] = lo + i
			}
		}
	default:
		return nil, fmt.Errorf("resinfer: unknown shard strategy %q", strategy)
	}
	return ids, nil
}

// Enable trains and installs a self-calibrating comparator (ADSampling or
// DDCRes) on every shard: its rotation once, over the rows of all shards,
// then each shard's comparator around that rotation, in parallel.
func (sx *ShardedIndex) Enable(mode Mode, opts *Options) error {
	return sx.enableAll(mode, nil, opts)
}

// EnableWithTraining trains and installs any comparator on every shard the
// way Enable does; trainQueries are required for DDCPCA and DDCOPQ and
// ignored otherwise. Every shard trains against the full training-query set
// (the queries are workload samples, not data, so they are not
// partitioned). DDCOPQ trains its rotation jointly with its codebooks, so
// there every shard keeps one of its own.
func (sx *ShardedIndex) EnableWithTraining(mode Mode, trainQueries [][]float32, opts *Options) error {
	return sx.enableAll(mode, trainQueries, opts)
}

func (sx *ShardedIndex) enableAll(mode Mode, trainQueries [][]float32, opts *Options) error {
	sx.enableMu.Lock()
	defer sx.enableMu.Unlock()
	if sx.mut != nil {
		// Serialize against compaction swaps so the new comparator lands on
		// every shard's current base, and record the call so a compacted
		// shard's rebuilt base gets the same comparator.
		sx.mut.mu.Lock()
		defer sx.mut.mu.Unlock()
	}
	if sx.Enabled(mode) {
		// Nothing trains, so nothing is recorded either: a compaction must
		// not build one shard with options its siblings never saw.
		return nil
	}
	if (mode == DDCPCA || mode == DDCOPQ) && len(trainQueries) == 0 {
		return fmt.Errorf("resinfer: mode %s needs training queries; use EnableWithTraining", mode)
	}
	o := sx.shards[0].opts
	if opts != nil {
		o = opts.withDefaults()
	}
	// The rotation is the sharded model, or trained here, once, over the
	// rows of all shards; ddc-opq trains its own jointly with its codebooks,
	// per shard. A second PCA mode reuses the basis the first re-based the
	// shards into.
	var rot *pca.Model
	var err error
	switch mode {
	case ADSampling:
		rot = adsampling.NewRotation(sx.shards[0].dim, o.Seed)
	case DDCRes, DDCPCA:
		if _, basis := sx.shards[0].rows(); basis == nil {
			if rot = sx.model; rot == nil {
				rot, err = trainModel(o.Seed, sx.mats()...)
			}
		}
	case DDCOPQ:
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return fmt.Errorf("resinfer: enabling %s: %w", mode, err)
	}
	errs := make([]error, len(sx.shards))
	var wg sync.WaitGroup
	for s := range sx.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = sx.shards[s].enable(mode, trainQueries, opts, rot)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("resinfer: enabling %s on shard %d: %w", mode, s, err)
		}
	}
	if sx.mut != nil {
		sx.mut.enables = append(sx.mut.enables, recordedEnable{
			mode: mode, trainQueries: trainQueries, opts: opts,
		})
	}
	return nil
}

// Enabled reports whether the mode's comparator is ready on every shard.
func (sx *ShardedIndex) Enabled(mode Mode) bool {
	for _, sh := range sx.shards {
		if !sh.Enabled(mode) {
			return false
		}
	}
	return true
}

// Search returns the approximate k nearest neighbors of q, fanning the
// query out to every shard and merging. budget applies per shard (beam
// width ef for HNSW, probe count for IVF).
func (sx *ShardedIndex) Search(q []float32, k int, mode Mode, budget int) ([]Neighbor, error) {
	ns, _, err := sx.searchFan(nil, nil, q, k, mode, budget, sx.workers, nil)
	return ns, err
}

// SearchInto is Search appending the hits to dst, plus the
// distance-computation work counters aggregated across shards
// (Comparisons and Pruned are summed, ScanRate is the comparison-weighted
// average). This is the plain path: up to SearchWorkers shards are probed
// concurrently, any shard error fails the query, and with a reused dst the
// fan-out allocates only what spawning SearchWorkers-1 helpers costs —
// nothing at SearchWorkers 1.
//
//resinfer:noalloc
func (sx *ShardedIndex) SearchInto(dst []Neighbor, q []float32, k int, mode Mode, budget int) ([]Neighbor, SearchStats, error) {
	return sx.searchFan(nil, dst, q, k, mode, budget, sx.workers, nil)
}

// SearchCtx is SearchInto under a deadline — the path a server takes:
// every shard is probed in its own goroutine, a slow or failed probe is
// hedged onto a peer replica when a hedger is installed (SetShardHedger),
// and when ctx expires the stragglers are abandoned and the merge returns
// whatever arrived. Stats.ShardsOK and Stats.ShardsFailed report
// coverage — ShardsFailed > 0 with a nil error is a partial result. The
// error is non-nil only when no shard contributed (all failed, or the
// deadline preempted every probe, in which case it is ctx.Err()).
// Abandoned probes finish on their own goroutines and release their
// scratch to the garbage collector, so a stuck shard costs memory, never a
// stalled request. A non-nil tr receives the fan-out, merge and per-shard
// stage timings.
func (sx *ShardedIndex) SearchCtx(ctx context.Context, dst []Neighbor, q []float32, k int, mode Mode, budget int, tr *obs.Trace) ([]Neighbor, SearchStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return sx.searchFan(ctx, dst, q, k, mode, budget, sx.workers, tr)
}

// errFanAbandoned marks an all-shards-abandoned merge so searchFan can
// substitute the context's own error.
var errFanAbandoned = errors.New("resinfer: every shard abandoned at deadline")

// searchFan queries the shards through pooled per-shard result buffers,
// then merges into dst. The query is moved into the internal space once,
// here, and rotated once, by the first probe that needs it
// (fanScratch.prime). A nil ctx is the plain path: the caller and up to
// workers-1 helpers probe the shards, any shard error fails the whole
// query, nothing is traced, and the query allocates nothing at steady
// state beyond what spawning the helpers costs (nothing at all for
// workers <= 1). A non-nil ctx is the deadline-aware path: one goroutine per shard, stragglers abandoned when
// ctx expires, failed or abandoned shards skipped by the merge and counted
// in SearchStats.ShardsFailed, stage timings recorded into tr when non-nil.
//
//resinfer:noalloc
func (sx *ShardedIndex) searchFan(ctx context.Context, dst []Neighbor, q []float32, k int, mode Mode, budget, workers int, tr *obs.Trace) ([]Neighbor, SearchStats, error) {
	if err := checkQuery(q, sx.userDim); err != nil {
		return dst, SearchStats{}, err
	}
	fs := sx.fanPool.Get().(*fanScratch)
	if err := sx.begin(fs, q, k, mode, budget); err != nil {
		sx.fanPool.Put(fs)
		return dst, SearchStats{}, err
	}
	if ctx == nil {
		sx.fanParallel(fs, workers)
		dst, st, err := sx.merge(dst, fs, false)
		sx.fanPool.Put(fs)
		return dst, st, err
	}
	outs := fs.outs
	var fanStart time.Time
	if tr != nil {
		fanStart = time.Now()
		fs.timed = true
	}
	abandoned := sx.fanDeadline(ctx, fs)
	var mergeStart time.Time
	if tr != nil {
		for s := range outs {
			if outs[s].done && outs[s].err == nil {
				tr.Shard(s, outs[s].t0, outs[s].d, outs[s].st.Comparisons, outs[s].st.Pruned)
			} else if fs.houts[s].done && fs.houts[s].err == nil {
				tr.Shard(s, fs.houts[s].t0, fs.houts[s].d, fs.houts[s].st.Comparisons, fs.houts[s].st.Pruned)
			}
		}
		tr.End("fanout", fanStart)
		mergeStart = time.Now()
	}
	dst, st, err := sx.merge(dst, fs, true)
	if errors.Is(err, errFanAbandoned) {
		if ce := ctx.Err(); ce != nil {
			err = ce
		}
	}
	if tr != nil {
		tr.End("merge", mergeStart)
	}
	if !abandoned {
		// Straggler goroutines of an abandoned fan still own slots of fs,
		// and still read its query and rotate-once slot; that scratch goes
		// to the garbage collector instead of racing them through the pool.
		sx.fanPool.Put(fs)
	}
	return dst, st, err
}

// fanParallel probes every shard from the calling goroutine and up to
// workers-1 helpers, each taking the next unprobed shard off fs.next until
// none is left: one spawn per helper, not one per shard, and none for
// workers <= 1.
//
//resinfer:noalloc
func (sx *ShardedIndex) fanParallel(fs *fanScratch, workers int) {
	fs.next.Store(0)
	for h := min(workers, len(sx.shards)) - 1; h > 0; h-- {
		fs.helpers.Add(1)
		go sx.fanHelp(fs) //resinfer:alloc-ok the one spawn per helper of a parallel fan-out
	}
	sx.fanDrain(fs)
	fs.helpers.Wait()
}

func (sx *ShardedIndex) fanHelp(fs *fanScratch) {
	defer fs.helpers.Done()
	sx.fanDrain(fs)
}

//resinfer:noalloc
func (sx *ShardedIndex) fanDrain(fs *fanScratch) {
	for s := int(fs.next.Add(1)) - 1; s < len(sx.shards); s = int(fs.next.Add(1)) - 1 {
		sx.searchShardObs(s, fs)
	}
}

// fanDeadline probes every shard on its own goroutine and waits for
// completions until ctx expires, then abandons the stragglers. Each
// completion is delivered over a buffered channel (so abandoned probes
// never block) and marks its slot done — the channel receive orders the
// straggler's writes before the coordinator's reads, making per-slot
// access race-free without locking. Shard timings land in the slot (see
// searchShardObs), not in tr: a straggler finishing after the caller has
// released the trace must not touch it, so searchFan emits trace entries
// for done shards only, after the fan returns.
//
// With a hedger installed (SetShardHedger) and a positive hedge delay,
// a shard that has not answered when the delay expires — exactly the
// shard that would otherwise trip the fan deadline — has its query
// re-issued to a peer replica; a shard whose local probe fails is
// hedged immediately. A hedge answer that fails checkHedge counts as a
// failed hedge. The first good answer per shard wins: a local
// completion cancels its losing hedge's context (aborting the remote
// call), and a hedge that answers first is counted as a win. A shard
// counts as failed only when every path — local probe and hedge — has
// failed, so partial results now mean all replicas of a shard are down.
func (sx *ShardedIndex) fanDeadline(ctx context.Context, fs *fanScratch) (abandoned bool) {
	n := len(sx.shards)
	outs := fs.outs
	for s := 0; s < n; s++ {
		outs[s].done = false
		fs.houts[s].done = false
		fs.complete[s] = false
		fs.cancels[s] = nil
	}
	// Buffered for every possible completion — locals plus one hedge per
	// shard — so abandoned probes never block.
	doneCh := make(chan int, 2*n)
	for s := range sx.shards {
		go func(s int) {
			sx.searchShardObs(s, fs)
			doneCh <- s
		}(s)
	}
	hedging := false
	var hedgeC <-chan time.Time
	if sx.hedger != nil {
		if d := time.Duration(sx.hedgeDelayNs.Load()); d > 0 {
			hedging = true
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	launch := func(s int) {
		hctx, cancel := context.WithCancel(ctx)
		fs.cancels[s] = cancel
		sx.hedged.Add(1)
		go func() {
			var t0 time.Time
			if fs.timed {
				t0 = time.Now()
			}
			h := &fs.houts[s]
			h.ns, h.st, h.err = sx.hedger(hctx, s, fs.q, fs.k, fs.mode, fs.budget)
			if h.err == nil {
				h.err = sx.checkHedge(h.ns, fs.k)
			}
			if fs.timed {
				h.t0, h.d = t0, time.Since(t0)
			}
			doneCh <- n + s
		}()
	}
	launched := n
	received := 0
	completed := 0
	// arrive records one completion. A shard completes on its first good
	// answer, or once every path that could still answer has failed.
	arrive := func(i int) {
		received++
		s := i
		if i >= n {
			s = i - n
		}
		slot := &outs[s]
		if i >= n {
			slot = &fs.houts[s]
		}
		slot.done = true
		if fs.complete[s] {
			return
		}
		if slot.err == nil {
			fs.complete[s] = true
			completed++
			if i >= n {
				sx.hedgeWins.Add(1)
			} else if c := fs.cancels[s]; c != nil {
				c() // local won: abort the losing hedge
			}
			return
		}
		if i < n {
			// Local probe failed: retry on a replica immediately — no
			// point waiting for the hedge delay — unless one is already
			// in flight or hedging is off.
			if hedging && fs.cancels[s] == nil {
				launched++
				launch(s)
				return
			}
			if fs.cancels[s] != nil && !fs.houts[s].done {
				return // hedge still in flight; it may yet answer
			}
		} else if !outs[s].done {
			return // hedge failed but the local probe may yet answer
		}
		fs.complete[s] = true
		completed++
	}
	for completed < n {
		select {
		case i := <-doneCh:
			arrive(i)
		case <-hedgeC:
			hedgeC = nil
			for s := 0; s < n; s++ {
				if !fs.complete[s] && fs.cancels[s] == nil {
					launched++
					launch(s)
				}
			}
		case <-ctx.Done():
			// Collect probes that completed concurrently with the deadline,
			// then walk away from the rest. No new hedges past the
			// deadline: their context is already dead.
			hedging = false
			for {
				select {
				case i := <-doneCh:
					arrive(i)
				default:
					sx.cancelHedges(fs)
					return true
				}
			}
		}
	}
	// Every shard answered. Drain completions that raced in; if a losing
	// probe is still running it owns its slot, so the scratch must be
	// abandoned rather than repooled.
	for received < launched {
		select {
		case i := <-doneCh:
			arrive(i)
		default:
			sx.cancelHedges(fs)
			return true
		}
	}
	sx.cancelHedges(fs)
	return false
}

// cancelHedges releases every hedge context the fan created; winners
// are already done and losers abort their remote call.
func (sx *ShardedIndex) cancelHedges(fs *fanScratch) {
	for s := range fs.cancels {
		if c := fs.cancels[s]; c != nil {
			c()
			fs.cancels[s] = nil
		}
	}
}

// searchShardObs runs fs's query on one shard into fs.outs[s]: the served
// probe. It reads the clock once around the probe when a shard observer is
// installed or the fan is traced, and the slot's (t0, d) feeds both. The
// untimed path costs a single branch. A panic inside the probe (index bug,
// or an injected fault) is isolated here into a per-shard error rather
// than killing the process; the recover costs an open-coded defer, keeping
// the steady-state path allocation-free.
//
//resinfer:noalloc
func (sx *ShardedIndex) searchShardObs(s int, fs *fanScratch) {
	out := &fs.outs[s]
	defer func() {
		if r := recover(); r != nil {
			out.ns = out.ns[:0]
			//resinfer:alloc-ok panic recovery is off the steady-state path
			out.err = fmt.Errorf("resinfer: shard %d panicked: %v", s, r)
		}
	}()
	if fault.Active() {
		if err := fault.CheckArg(fault.SiteShardSearch, s); err != nil {
			out.ns = out.ns[:0]
			out.st = SearchStats{}
			out.err = err
			return
		}
	}
	if sx.shardObs == nil && !fs.timed {
		sx.probe(s, out, fs)
		return
	}
	t0 := time.Now()
	sx.probe(s, out, fs)
	out.t0, out.d = t0, time.Since(t0)
	if sx.shardObs != nil {
		sx.shardObs(s, out.d, out.st)
	}
}

// probe is the one shard probe, served or ground truth: under the shard's
// segment read lock (so a concurrent hot swap can never tear the base,
// globalID and segments), the base is searched for k rows with the
// shard's row mask, which hides its deleted and shadowed rows inside
// the scan or walk, so every base hit is live. The hits are translated to
// global IDs and merge keys (mergeReady), and the memtable is scanned
// exactly into the same bounded queue.
//
//resinfer:noalloc
func (sx *ShardedIndex) probe(s int, out *shardOut, fs *fanScratch) {
	seg := sx.segs[s]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	base := sx.shards[s]
	out.ns, out.st, out.err = base.searchShard(out.ns[:0], fs, seg.mask)
	if out.err != nil {
		return
	}
	if out.rq == nil {
		out.rq = heap.NewResultQueue(fs.k) //resinfer:alloc-ok lazy once-per-slot queue
	}
	rq := out.rq
	rq.Reset(fs.k)
	sx.mergeReady(base, sx.globalID[s], out.ns, fs.q)
	for _, n := range out.ns {
		rq.Push(n.ID, n.Distance)
	}
	// The memtable stores rows in the scan space (see scanRow), which is the
	// internal space less InnerProduct's augmentation coordinate.
	if memComp := seg.mem.Scan(fs.tq[:sx.userDim], sx.metric == InnerProduct, rq); memComp > 0 {
		tot := out.st.Comparisons + int64(memComp)
		out.st.ScanRate = (out.st.ScanRate*float64(out.st.Comparisons) + float64(memComp)) / float64(tot)
		out.st.Comparisons = tot
		out.st.PrunedRate = float64(out.st.Pruned) / float64(tot)
	}
	out.ns = drain(out.ns[:0], rq)
}

// drain empties rq into dst in ascending merge-key order.
//
//resinfer:noalloc
func drain(dst []Neighbor, rq *heap.ResultQueue) []Neighbor {
	start := len(dst)
	for i := 0; i < rq.Len(); i++ {
		dst = append(dst, Neighbor{})
	}
	items := dst[start:]
	for i := len(items) - 1; i >= 0; i-- {
		it, _ := rq.PopMax()
		items[i] = Neighbor{ID: it.ID, Distance: it.Dist}
	}
	return dst
}

// mergeReady rewrites one shard's hits in place into the form every shardOut
// holds and merge ranks, whether the probe was local, mutable or a hedge
// peer's: ID is the global row ID, Distance the cross-shard merge key.
// Shards rank by internal squared distance, which is cross-shard comparable
// for L2 and Cosine; an InnerProduct index augments vectors with a per-shard
// constant, so there the key is the negated native score (see Score). base
// and gids are shard s's index and its local-to-global ID table.
//
//resinfer:noalloc
func (sx *ShardedIndex) mergeReady(base *Index, gids []int, ns []Neighbor, q []float32) {
	ip := sx.metric == InnerProduct
	for i, n := range ns {
		if ip {
			ns[i].Distance = -base.Score(n, q)
		}
		ns[i].ID = gids[n.ID]
	}
}

// merge k-way-merges the per-shard results — already global IDs and merge
// keys, see mergeReady — through the bounded result queue. Deleted and
// shadowed rows are already masked out (see probe); the merge
// additionally drops any duplicate global ID so a row can never be
// reported twice across shards.
//
// In partial mode (the deadline-aware fan) a failed or abandoned shard
// is skipped and counted in ShardsFailed instead of failing the query;
// the merge errors only when no shard contributed — with the first
// shard error, or errFanAbandoned when every probe was preempted.
//
//resinfer:noalloc
func (sx *ShardedIndex) merge(dst []Neighbor, fs *fanScratch, partial bool) ([]Neighbor, SearchStats, error) {
	var agg SearchStats
	var scanWeighted float64
	var firstErr error
	rq := fs.rq
	rq.Reset(fs.k)
	if fs.seen == nil {
		fs.seen = make(map[int]struct{}, 4*fs.k) //resinfer:alloc-ok lazy once-per-scratch dedup map
	} else {
		clear(fs.seen)
	}
	for s := range fs.outs {
		out := &fs.outs[s]
		if partial {
			// An abandoned slot may still be written by its straggler: the
			// done flag gates every other field read, so an un-done slot
			// contributes no error text either. A shard the local probe
			// lost is answered by its hedge slot when that one holds a good
			// answer; it fails only when every path failed.
			if !out.done || out.err != nil {
				h := &fs.houts[s]
				if h.done && h.err == nil {
					out = h
				} else {
					agg.ShardsFailed++
					if firstErr == nil {
						var ferr error
						if out.done {
							ferr = out.err
						}
						if ferr == nil && h.done {
							ferr = h.err
						}
						if ferr != nil {
							//resinfer:alloc-ok cold shard-failure path
							firstErr = fmt.Errorf("resinfer: shard %d: %w", s, ferr)
						}
					}
					continue
				}
			}
		} else if out.err != nil {
			//resinfer:alloc-ok cold shard-failure path
			return dst, SearchStats{}, fmt.Errorf("resinfer: shard %d: %w", s, out.err)
		}
		agg.ShardsOK++
		st := out.st
		agg.Comparisons += st.Comparisons
		agg.Pruned += st.Pruned
		scanWeighted += st.ScanRate * float64(st.Comparisons)
		for _, n := range out.ns {
			if _, dup := fs.seen[n.ID]; dup {
				continue
			}
			fs.seen[n.ID] = struct{}{}
			if n.Distance < rq.Threshold() {
				rq.Push(n.ID, n.Distance)
			}
		}
	}
	if agg.Comparisons > 0 {
		agg.ScanRate = scanWeighted / float64(agg.Comparisons)
		agg.PrunedRate = float64(agg.Pruned) / float64(agg.Comparisons)
	}
	if partial && agg.ShardsOK == 0 {
		if firstErr == nil {
			firstErr = errFanAbandoned
		}
		return dst, agg, firstErr
	}
	return drain(dst, rq), agg, nil
}

// SearchBatch runs SearchInto for every query concurrently across up to
// workers goroutines (default GOMAXPROCS). Parallelism is spent across
// queries: each worker scans the shards of its query one after another, so
// total concurrency stays bounded by workers. Each worker draws pooled
// fan-out and evaluator state that is reused across all queries it
// processes. Batch parameters are validated once up front. Results are
// positionally aligned with queries; per-query failures are reported in
// the result rather than aborting the batch.
func (sx *ShardedIndex) SearchBatch(queries [][]float32, k int, mode Mode, budget, workers int) ([]BatchResult, error) {
	return sx.searchBatch(nil, queries, k, mode, budget, workers, nil)
}

// SearchBatchCtx is SearchBatch under a deadline: every query runs
// through the deadline-aware fan-out (see SearchCtx) — which, unlike
// SearchBatch, probes every shard of a query on its own goroutine — so a
// stuck shard costs at most the remaining budget of the queries probing
// it and each BatchResult independently reports partial coverage via its
// Stats.ShardsOK/ShardsFailed. Once ctx expires, queries not yet started
// fail fast with ctx's error. traces, when non-nil, is aligned with
// queries and each non-nil entry receives its query's fan-out, merge and
// per-shard stage timings.
func (sx *ShardedIndex) SearchBatchCtx(ctx context.Context, queries [][]float32, k int, mode Mode, budget, workers int, traces []*obs.Trace) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return sx.searchBatch(ctx, queries, k, mode, budget, workers, traces)
}

func (sx *ShardedIndex) searchBatch(ctx context.Context, queries [][]float32, k int, mode Mode, budget, workers int, traces []*obs.Trace) ([]BatchResult, error) {
	if err := validateBatch(queries, k, budget, sx.userDim); err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(queries))
	runBatch(len(queries), workers, func(next <-chan int) {
		for qi := range next {
			var tr *obs.Trace
			if qi < len(traces) {
				tr = traces[qi]
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					out[qi] = BatchResult{Err: err}
					continue
				}
			}
			ns, st, err := sx.searchFan(ctx, nil, queries[qi], k, mode, budget, 1, tr)
			out[qi] = BatchResult{Neighbors: ns, Stats: st, Err: err}
		}
	})
	return out, nil
}

// Score converts a Neighbor returned by this sharded index into the
// metric's native score, mirroring Index.Score. For InnerProduct the
// merge already ranks by native score, so Distance holds the negated
// inner product and Score simply flips the sign.
func (sx *ShardedIndex) Score(n Neighbor, q []float32) float32 {
	if sx.metric == InnerProduct {
		return -n.Distance
	}
	if len(sx.shards) == 0 || sx.shards[0] == nil {
		return n.Distance
	}
	return sx.shards[0].Score(n, q)
}

// Kind returns the shards' index structure.
func (sx *ShardedIndex) Kind() IndexKind { return sx.kind }

// Strategy returns the shard assignment strategy.
func (sx *ShardedIndex) Strategy() ShardStrategy { return sx.strategy }

// Metric returns the index's similarity measure.
func (sx *ShardedIndex) Metric() MetricKind { return sx.metric }

// Len returns the total number of indexed vectors across shards. On a
// mutable index this is the live row count: inserts minus deletes,
// unaffected by compaction.
func (sx *ShardedIndex) Len() int {
	if sx.mut != nil {
		return int(sx.mut.liveN.Load())
	}
	return sx.n
}

// Dim returns the internal vector dimensionality (shards agree). It
// returns 0 on a corrupt index with no shards rather than panicking.
func (sx *ShardedIndex) Dim() int {
	if len(sx.shards) == 0 || sx.shards[0] == nil {
		return 0
	}
	return sx.shards[0].Dim()
}

// QueryDim returns the dimensionality callers must present queries in.
func (sx *ShardedIndex) QueryDim() int { return sx.userDim }

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Modes lists the comparators enabled on every shard, in name order. It
// returns an empty list on a corrupt index with no shards rather than
// panicking.
func (sx *ShardedIndex) Modes() []Mode {
	out := []Mode{}
	if len(sx.shards) == 0 || sx.shards[0] == nil {
		return out
	}
	for _, m := range sx.shards[0].Modes() {
		if sx.Enabled(m) {
			out = append(out, m)
		}
	}
	return out
}

// Save serializes the sharded index — strategy, global ID mapping, and
// every shard with its enabled comparators — as one stream: a container
// header followed by each shard in the single-index format. A mutable
// index must be saved through MutableIndex.Save, which additionally
// persists the memtables and the deleted base rows; saving it here would
// silently drop pending mutations, so it is refused.
func (sx *ShardedIndex) Save(w io.Writer) error {
	if sx.mut != nil {
		return errors.New("resinfer: index has streaming segments; save it through MutableIndex.Save")
	}
	pw := persist.NewWriter(w)
	if err := sx.encodeSharded(pw); err != nil {
		return err
	}
	return pw.Flush()
}

// encodeSharded writes the sharded container onto an existing persist
// stream. It is the codec-level half of Save, shared with the mutable
// RESSTRM3 container, which embeds it between its own header and the
// per-shard streaming segments. The caller must hold whatever locks make
// sx.shards/globalID stable.
func (sx *ShardedIndex) encodeSharded(pw *persist.Writer) error {
	pw.Magic(shardMagic)
	pw.String(string(sx.strategy))
	pw.Int(len(sx.shards))
	pw.Int(sx.n)
	pw.Int(sx.userDim)
	for s := range sx.shards {
		pw.Ints(sx.globalID[s])
		sx.shards[s].encode(pw)
	}
	return pw.Err()
}

// LoadSharded deserializes a sharded index written by Save.
func LoadSharded(r io.Reader) (*ShardedIndex, error) {
	return decodeSharded(persist.NewReader(r))
}

// decodeSharded reads one sharded container from an existing persist
// reader (the codec-level half of LoadSharded, shared with the mutable
// RESSTRM3 container). Shards whose comparators shared a rotation when
// saved share it again: the stream holds one copy and back-references.
func decodeSharded(pr *persist.Reader) (*ShardedIndex, error) {
	pr.Magic(shardMagic)
	strategy := ShardStrategy(pr.String())
	nShards := pr.Int()
	n := pr.Int()
	userDim := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if nShards <= 0 || nShards > n {
		return nil, fmt.Errorf("resinfer: corrupt shard count %d (n=%d)", nShards, n)
	}
	if userDim <= 0 {
		return nil, fmt.Errorf("resinfer: corrupt query dimensionality %d", userDim)
	}
	// shards and globalID grow as shards actually arrive: nShards is a
	// claim until then.
	sx := &ShardedIndex{
		strategy: strategy,
		userDim:  userDim,
		workers:  runtime.GOMAXPROCS(0),
	}
	rows := 0
	for s := 0; s < nShards; s++ {
		gids := pr.Ints()
		if err := pr.Err(); err != nil {
			return nil, err
		}
		sh, err := decodeIndex(pr)
		if err != nil {
			return nil, fmt.Errorf("resinfer: decoding shard %d: %w", s, err)
		}
		if len(gids) != sh.Len() {
			return nil, fmt.Errorf("resinfer: shard %d has %d rows but %d global IDs",
				s, sh.Len(), len(gids))
		}
		if s > 0 && (sh.kind != sx.shards[0].kind || sh.metric.kind != sx.shards[0].metric.kind || sh.dim != sx.shards[0].dim) {
			return nil, fmt.Errorf("resinfer: shard %d is a %d-d %s %s index, shard 0 a %d-d %s %s one",
				s, sh.dim, sh.metric.kind, sh.kind, sx.shards[0].dim, sx.shards[0].metric.kind, sx.shards[0].kind)
		}
		if sh.userDim != userDim {
			return nil, fmt.Errorf("resinfer: shard %d takes %d-d queries, the index %d-d ones", s, sh.userDim, userDim)
		}
		rows += sh.Len()
		sx.shards = append(sx.shards, sh)
		sx.globalID = append(sx.globalID, gids)
	}
	// The recorded n sizes the mutation maps and is what Len reports: take
	// the rows that arrived (a compacted mutable index records a stale one).
	sx.n = rows
	sx.kind = sx.shards[0].Kind()
	sx.metric = sx.shards[0].Metric()
	// No file holds the model: train it again over the loaded rows, as
	// NewSharded did over the rows it was given.
	if _, basis := sx.shards[0].rows(); basis == nil {
		sx.model = constructionModel(sx.shards[0].opts.Seed, sx.mats()...)
		for _, sh := range sx.shards {
			if _, basis := sh.rows(); basis == nil {
				if err := sh.adopt(sx.model); err != nil {
					return nil, err
				}
			}
		}
	}
	sx.initFanPool()
	return sx, nil
}

// mats returns every shard's rows, in shard order.
func (sx *ShardedIndex) mats() []*store.Matrix {
	mats := make([]*store.Matrix, len(sx.shards))
	for s, sh := range sx.shards {
		mats[s], _ = sh.rows()
	}
	return mats
}

// SaveFile writes the sharded index to a file.
func (sx *ShardedIndex) SaveFile(path string) error { return saveFile(path, sx.Save) }

// LoadShardedFile reads a sharded index from a file written by SaveFile.
func LoadShardedFile(path string) (*ShardedIndex, error) { return loadFile(path, LoadSharded) }
