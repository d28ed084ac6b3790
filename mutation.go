package resinfer

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"resinfer/internal/ddc"
	"resinfer/internal/fault"
	"resinfer/internal/heap"
	"resinfer/internal/metric"
	"resinfer/internal/pca"
	"resinfer/internal/retry"
	"resinfer/internal/store"
	"resinfer/internal/stream"
	"resinfer/internal/vec"
	"resinfer/internal/wal"
)

// Sentinel errors of the mutation API. Callers (notably internal/server)
// branch HTTP status codes on errors.Is: an ErrInvalidVector is the
// caller's fault (400), an ErrDegraded means writes are temporarily
// refused (503 — the searches still work), anything else — a failed
// shard rebuild, a WAL append failure — is internal (500).
var (
	// ErrInvalidVector reports a vector rejected by a constructor (New,
	// NewSharded, NewMutable) or a mutation (Add, Upsert): wrong
	// dimensionality, or a NaN/±Inf component (which would poison exact
	// scans and corrupt comparator training).
	ErrInvalidVector = errors.New("resinfer: invalid vector")
	// ErrDegraded reports a mutation on an index that degraded itself to
	// read-only after a persistent WAL failure: the durability contract
	// ("an acknowledged mutation is recoverable") cannot be honored, so
	// writes fail loudly instead of silently losing durability. Searches
	// are unaffected. MutableIndex.ClearDegraded re-arms writes once the
	// underlying fault is fixed.
	ErrDegraded = errors.New("resinfer: index degraded to read-only after persistent WAL failure")
)

// walAppendPolicy bounds the in-line retry of a transient WAL append
// failure before the index declares itself degraded: three attempts on
// a constant 5ms gap (Factor 1 — the append path wants a predictable,
// short stall, not an exponential one).
var walAppendPolicy = retry.Policy{Attempts: 3, Base: 5 * time.Millisecond, Factor: 1}

// This file is the streaming-ingestion substrate of ShardedIndex: each
// shard pairs its immutable base index with an append-only memtable
// segment (exact brute-force scan, so recall on fresh vectors is
// perfect) and a tombstone set for deletes; a compaction rebuilds a
// shard's base from the live rows off the serving path and hot-swaps it
// under the shard's RWMutex with zero search downtime. The public
// lifecycle wrapper — background compaction, counters, persistence —
// lives in MutableIndex (mutable.go).

// recordedEnable remembers one Enable/EnableWithTraining call so a
// compacted shard's rebuilt base index gets the same comparators with the
// same configuration (built around the rotation of the base it replaces;
// see compactShard).
type recordedEnable struct {
	mode         Mode
	trainQueries [][]float32
	opts         *Options
}

// shardSeg is the mutable extension of one shard. Its RWMutex guards the
// shard's entire serving state — sx.shards[s], sx.globalID[s], mem and
// dead — against searches: searches hold the read lock for the duration
// of one shard probe; mutations and the compaction hot swap take the
// write lock briefly.
type shardSeg struct {
	mu         sync.RWMutex
	mem        *stream.Memtable
	dead       *stream.Tombstones
	baseHas    map[int]struct{} // global IDs present in the current base segment
	hidden     int              // base rows invisible (tombstoned or shadowed by a memtable row)
	compacting bool             // claimed by a running compaction (guarded by mutState.mu)
}

// recountHidden recomputes hidden from the segments as they stand: the base
// rows that are tombstoned, plus those a live memtable row shadows. The
// caller holds mu, or owns a seg no search can reach yet.
func (seg *shardSeg) recountHidden() {
	seg.hidden = 0
	for _, gid := range seg.dead.IDs() {
		if _, ok := seg.baseHas[gid]; ok {
			seg.hidden++
		}
	}
	for i := 0; i < seg.mem.Len(); i++ {
		gid := seg.mem.ID(i)
		if _, ok := seg.baseHas[gid]; ok && !seg.dead.Has(gid) {
			seg.hidden++
		}
	}
}

// mutState is the index-wide streaming state. Its mutex serializes
// mutations (Add/Upsert/Delete), compaction swaps, Enable calls, and
// Save on a mutable index; searches never take it.
type mutState struct {
	mu        sync.Mutex
	compacted *sync.Cond // on mu; broadcast when any shardSeg.compacting clears
	segs      []*shardSeg
	owner     map[int]int // live global ID → owning shard
	nextID    int         // next auto-assigned global ID
	rr        int         // round-robin cursor for fresh inserts
	liveN     atomic.Int64
	enables   []recordedEnable
	indexOpts *Options // per-shard build options, replayed on compaction

	// wal, when non-nil, is appended to — under mu, so log order equals
	// apply order — before any mutation is applied; appliedLSN tracks
	// the last record applied to this index (what a snapshot covers).
	wal        *wal.Log
	appliedLSN atomic.Uint64

	// degraded holds the error that flipped the index read-only after a
	// persistent WAL failure (nil while healthy). Atomic so /readyz can
	// probe it without contending with mutations.
	degraded atomic.Pointer[error]
}

// degradedErr returns the sticky degraded error, nil while healthy.
func (m *mutState) degradedErr() error {
	if p := m.degraded.Load(); p != nil {
		return *p
	}
	return nil
}

// walAppend runs one WAL append under walAppendPolicy: a transient
// failure (e.g. a rolled-back write error) is retried; when every
// attempt fails the index flips itself degraded — fail-stop read-only —
// and the mutation (and every later one) reports ErrDegraded. Called
// under m.mu.
func (m *mutState) walAppend(do func() (uint64, error)) (uint64, error) {
	var lsn uint64
	var closed bool
	err := walAppendPolicy.Do(nil, func() error {
		var aerr error
		lsn, aerr = do()
		if errors.Is(aerr, wal.ErrClosed) {
			// The log was closed deliberately (index shutdown), not lost:
			// not a degradation, and retrying cannot help.
			closed = true
			return retry.Permanent(aerr)
		}
		return aerr
	})
	if err == nil {
		return lsn, nil
	}
	if closed {
		return 0, fmt.Errorf("resinfer: wal append: %w", err)
	}
	derr := fmt.Errorf("%w (cause: %v)", ErrDegraded, err)
	m.degraded.Store(&derr)
	return 0, derr
}

// enableMutation installs the streaming segments on a freshly built or
// loaded sharded index. indexOpts is retained for compaction rebuilds.
func (sx *ShardedIndex) enableMutation(indexOpts *Options) {
	m := &mutState{
		segs:      make([]*shardSeg, len(sx.shards)),
		owner:     make(map[int]int, sx.n),
		indexOpts: indexOpts,
		rr:        0,
	}
	m.compacted = sync.NewCond(&m.mu)
	maxID := -1
	for s := range sx.shards {
		m.segs[s] = &shardSeg{
			mem:     stream.NewMemtable(sx.userDim),
			dead:    stream.NewTombstones(),
			baseHas: make(map[int]struct{}, len(sx.globalID[s])),
		}
		for _, gid := range sx.globalID[s] {
			m.owner[gid] = s
			m.segs[s].baseHas[gid] = struct{}{}
			if gid > maxID {
				maxID = gid
			}
		}
	}
	m.nextID = maxID + 1
	m.liveN.Store(int64(len(m.owner)))
	sx.mut = m
}

// scanRow maps a caller vector into the scan space the memtable stores:
// the raw vector for L2 and InnerProduct, the unit-normalized vector for
// Cosine. In that space the memtable's exact keys (squared L2, or
// negated dot product for InnerProduct) are directly comparable with the
// merge keys of base-segment hits.
func (sx *ShardedIndex) scanRow(v []float32) ([]float32, error) {
	if err := checkVector(v, sx.userDim); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidVector, err)
	}
	row := make([]float32, len(v))
	if sx.metric == Cosine {
		return metric.NormalizeForCosineInto(row, v)
	}
	copy(row, v)
	return row, nil
}

// mutUpsert is the insert path of MutableIndex.Add / Upsert and of WAL
// replay. id < 0 assigns a fresh ID — round-robin across shards, so
// sustained ingestion grows every shard evenly — and a live id is replaced
// in place (old version hidden immediately). The ID is stable for the life
// of the row: searches report it, Delete accepts it, and compaction
// preserves it. The resolved (id, shard) is logged to the WAL — if one is
// attached — before any state changes, so a failed append leaves the index
// untouched and an applied mutation is always recoverable.
func (sx *ShardedIndex) mutUpsert(id int, v []float32) (int, error) {
	m := sx.mut
	row, err := sx.scanRow(v)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if derr := m.degradedErr(); derr != nil {
		return 0, derr
	}
	var s int
	fresh := false
	if id < 0 {
		id = m.nextID
		s = m.rr % len(m.segs)
		fresh = true
	} else if prev, live := m.owner[id]; live {
		s = prev // replacement routes to the owning shard so the old row is shadowed there
	} else {
		s = m.rr % len(m.segs)
		fresh = true
	}
	if m.wal != nil {
		// Log the caller-space vector: replay re-executes this exact
		// path (same validation, same Cosine normalization), so any kind
		// of recovered index is bit-identical to one that never crashed.
		lsn, err := m.walAppend(func() (uint64, error) { return m.wal.AppendUpsert(s, id, v) })
		if err != nil {
			return 0, err
		}
		m.appliedLSN.Store(lsn)
	}
	if fresh {
		if id >= m.nextID {
			m.nextID = id + 1
		}
		m.rr++
		m.owner[id] = s
		m.liveN.Add(1)
	}
	seg := m.segs[s]
	seg.mu.Lock()
	appended := seg.mem.Add(id, row)
	if appended {
		// A first memtable write for an ID that sits visible in the base
		// segment shadows that base row; the hidden count feeds the base
		// over-fetch so filtering can never starve a search below k.
		if _, inBase := seg.baseHas[id]; inBase && !seg.dead.Has(id) {
			seg.hidden++
		}
	}
	seg.mu.Unlock()
	return id, nil
}

// mutDelete removes the row with the given global ID, reporting whether it
// was live. The row disappears from searches immediately (memtable rows
// are dropped in place; base rows are tombstoned) and its storage is
// reclaimed by the next compaction of the owning shard.
func (sx *ShardedIndex) mutDelete(id int) (bool, error) {
	m := sx.mut
	m.mu.Lock()
	defer m.mu.Unlock()
	if derr := m.degradedErr(); derr != nil {
		return false, derr
	}
	s, live := m.owner[id]
	if !live {
		return false, nil
	}
	if m.wal != nil {
		lsn, err := m.walAppend(func() (uint64, error) { return m.wal.AppendDelete(s, id) })
		if err != nil {
			return false, err
		}
		m.appliedLSN.Store(lsn)
	}
	seg := m.segs[s]
	seg.mu.Lock()
	hadMem := seg.mem.Remove(id)
	if _, inBase := seg.baseHas[id]; inBase && !hadMem && !seg.dead.Has(id) {
		// A visible base row becomes hidden; one that was already shadowed
		// by a memtable row (hadMem) or tombstoned was counted before.
		seg.hidden++
	}
	// Tombstone unconditionally: the ID may sit in the base segment, or be
	// mid-flight into a rebuilt base an in-progress compaction is about to
	// swap in. A tombstone for an ID no base holds filters nothing and is
	// retired by the next compaction.
	seg.dead.Add(id)
	seg.mu.Unlock()
	delete(m.owner, id)
	m.liveN.Add(-1)
	return true, nil
}

// searchShardMut probes one shard of a mutable index: the base index is
// over-fetched by the shard's hidden-row bound (tombstones plus memtable
// rows, so filtering can never starve the result below k), hits are
// translated to global IDs and merge keys (mergeReady), tombstoned and
// shadowed base hits are dropped, and the memtable is scanned exactly into
// the same bounded queue. The shard read lock is held for the whole probe
// so a concurrent hot swap can never tear the (base, globalID, segments)
// triple.
//
//resinfer:noalloc
func (sx *ShardedIndex) searchShardMut(s int, out *shardOut, fs *fanScratch) {
	k := fs.k
	seg := sx.mut.segs[s]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	base := sx.shards[s]
	// Over-fetch by exactly the number of invisible base rows: filtering
	// them can then never starve the shard's contribution below k, and a
	// pure-ingest workload (nothing hidden) pays no over-fetch at all.
	kEff := k + seg.hidden
	out.ns, out.st, out.err = base.searchShard(out.ns[:0], fs, kEff)
	if out.err != nil {
		return
	}
	if out.rq == nil {
		out.rq = heap.NewResultQueue(k)
	}
	rq := out.rq
	rq.Reset(k)
	sx.mergeReady(base, sx.globalID[s], out.ns, fs.q)
	for _, n := range out.ns {
		if seg.dead.Has(n.ID) || seg.mem.Has(n.ID) {
			continue
		}
		if n.Distance < rq.Threshold() {
			rq.Push(n.ID, n.Distance)
		}
	}
	// The memtable stores rows in the scan space (see scanRow), which is the
	// internal space less InnerProduct's augmentation coordinate.
	memComp := seg.mem.Scan(fs.tq[:sx.userDim], sx.metric == InnerProduct, rq)
	if memComp > 0 {
		tot := out.st.Comparisons + int64(memComp)
		out.st.ScanRate = (out.st.ScanRate*float64(out.st.Comparisons) + float64(memComp)) / float64(tot)
		out.st.Comparisons = tot
		if tot > 0 {
			out.st.PrunedRate = float64(out.st.Pruned) / float64(tot)
		}
	}
	out.ns = out.ns[:0]
	nres := rq.Len()
	for i := 0; i < nres; i++ {
		out.ns = append(out.ns, Neighbor{})
	}
	for i := nres - 1; i >= 0; i-- {
		it, _ := rq.PopMax()
		out.ns[i] = Neighbor{ID: it.ID, Distance: it.Dist}
	}
}

// compactInfo describes one finished shard compaction.
type compactInfo struct {
	shard     int
	rows      int           // rows in the rebuilt base
	memRows   int           // memtable rows folded in
	dead      int           // tombstones retired
	buildDur  time.Duration // off-path rebuild + retrain time
	swapDur   time.Duration // write-lock hold time of the hot swap
	leadShare float64       // CompactionInfo.LeadShare
}

// inherit installs the recorded comparators ix, a rebuilt base, lacks, each
// built around the rotation old's comparator of that mode uses (ix's rows
// are in old's basis already, see compactRows): the eigensolver does not
// run. A mode old does not have (or ddc-opq) trains from scratch.
func (ix *Index) inherit(old *Index, enables []recordedEnable) error {
	for _, e := range enables {
		if err := ix.enable(e.mode, e.trainQueries, e.opts, old.rotationOf(e.mode)); err != nil {
			return err
		}
	}
	return nil
}

// compactRows is what a compaction of base builds on, with its metric state
// and basis (σ refit): base's rows at keep as they are, then the memtable
// rows ingested and, on a re-based base, projected once. InnerProduct's R
// only grows: raised to R', a kept row's coordinate a = sqrt(R²−‖x‖²)
// moves to sqrt(R'²−R²+a²) along its axis, in a basis y = B(x−μ) column D
// of B, where a = μ_D + ⟨axis, y⟩.
func (base *Index) compactRows(keep, memIDs []int, memVecs []float32) (*store.Matrix, *metricState, *pca.Model, error) {
	rows, basis := base.rows()
	ms, d := base.metric, base.userDim
	var maxSq float64
	if ms.kind == InnerProduct {
		maxSq = ms.ip.MaxSq
	}
	mat, err := store.New(len(keep)+len(memIDs), base.dim)
	var fresh *store.Matrix
	if err == nil && len(memIDs) > 0 {
		fresh, ms, err = ingest(len(memIDs), func(i int) (int, []float32) { return memIDs[i], memVecs[i*d : (i+1)*d] }, ms.kind, maxSq)
		if err == nil && basis != nil {
			fresh, err = basis.ProjectMatrix(fresh, 0)
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	for i, l := range keep {
		mat.SetRow(i, rows.Row(l))
	}
	if fresh != nil {
		copy(mat.Flat()[len(keep)*base.dim:], fresh.Flat())
	}
	if ms.kind == InnerProduct && ms.ip.MaxSq > maxSq {
		last, mu := base.dim-1, 0.0
		axis := make([]float32, base.dim)
		axis[last] = 1
		if basis != nil {
			for i := range axis {
				axis[i] = basis.Rotation.Row(i)[last]
			}
			mu = float64(basis.Mean[last])
		}
		for i := range keep {
			a := mu + float64(vec.Dot(axis, mat.Row(i)))
			vec.Axpy(float32(math.Sqrt(ms.ip.MaxSq-maxSq+a*a)-a), axis, mat.Row(i))
		}
	}
	if basis != nil {
		basis = basis.Refit(mat)
	}
	return mat, ms, basis, nil
}

// compactShard rebuilds shard s from its live rows — base minus
// tombstones and shadowed rows, plus the memtable — builds every recorded
// comparator over them around the rotation the old base used (see
// inherit; nothing short of rebuilding the index trains a rotation
// again), and hot-swaps the result in under the shard's write lock.
// Searches keep running against the old base for the whole build; the
// swap itself is a few pointer stores. When another compaction holds the
// shard, wait decides between leaving the shard to it and waiting for it
// to finish and then compacting what it left behind — rows that arrived
// after its snapshot. It returns false when there was nothing to do (no
// pending segments, an unawaited concurrent compaction, or every row is
// deleted).
func (sx *ShardedIndex) compactShard(s int, wait bool) (bool, compactInfo, error) {
	m := sx.mut
	if s < 0 || s >= len(m.segs) {
		return false, compactInfo{}, fmt.Errorf("resinfer: shard %d out of range", s)
	}
	m.mu.Lock()
	seg := m.segs[s]
	for seg.compacting {
		if !wait {
			m.mu.Unlock()
			return false, compactInfo{}, nil
		}
		m.compacted.Wait()
	}
	seg.compacting = true
	enables := append([]recordedEnable(nil), m.enables...)
	opts := m.indexOpts
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		seg.compacting = false
		m.compacted.Broadcast()
		m.mu.Unlock()
	}()

	// Snapshot the shard under the read lock: base and globalID are
	// immutable objects (swaps replace, never mutate), the memtable and
	// tombstones are copied.
	seg.mu.RLock()
	base := sx.shards[s]
	baseIDs := sx.globalID[s]
	memIDs, memVecs, seqSnap := seg.mem.Snapshot()
	deadSnap := seg.dead.Clone()
	seg.mu.RUnlock()

	if len(memIDs) == 0 && deadSnap.Len() == 0 {
		return false, compactInfo{}, nil
	}

	// The rebuilt base holds the base rows that are neither tombstoned nor
	// shadowed by a memtable row (keep lists them), then the memtable rows.
	memSet := make(map[int]struct{}, len(memIDs))
	for _, id := range memIDs {
		memSet[id] = struct{}{}
	}
	keep := make([]int, 0, len(baseIDs))
	ids := make([]int, 0, len(baseIDs)+len(memIDs))
	for local, gid := range baseIDs {
		if deadSnap.Has(gid) {
			continue
		}
		if _, shadowed := memSet[gid]; shadowed {
			continue
		}
		keep = append(keep, local)
		ids = append(ids, gid)
	}
	ids = append(ids, memIDs...)
	if len(ids) == 0 {
		// Every row of the shard is deleted; there is nothing to build an
		// index over. Leave the segments in place — searches already filter
		// everything out — and let a future insert trigger the rebuild.
		return false, compactInfo{}, nil
	}

	if fault.Active() {
		if ferr := fault.CheckArg(fault.SiteCompactBuild, s); ferr != nil {
			return false, compactInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, ferr)
		}
	}
	buildStart := time.Now()
	mat, ms, basis, err := base.compactRows(keep, memIDs, memVecs)
	var newIdx *Index
	if err == nil {
		newIdx, err = buildIndex(mat, ms, basis, sx.kind, opts.withDefaults())
	}
	if err != nil {
		return false, compactInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	if err := newIdx.inherit(base, enables); err != nil {
		return false, compactInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	buildDur := time.Since(buildStart)

	newBaseHas := make(map[int]struct{}, len(ids))
	for _, gid := range ids {
		newBaseHas[gid] = struct{}{}
	}

	if fault.Active() {
		if ferr := fault.CheckArg(fault.SiteCompactSwap, s); ferr != nil {
			return false, compactInfo{}, fmt.Errorf("resinfer: swapping compacted shard %d: %w", s, ferr)
		}
	}
	// Hot swap: everything after the snapshot point survives in the
	// segments — memtable rows written during the build stay (and shadow
	// their compacted versions), tombstones added during the build stay
	// (and filter the rebuilt base), consumed tombstones retire. The
	// surviving segments are small (bounded by build-time churn), so the
	// hidden-row recount under the lock is cheap.
	m.mu.Lock()
	// A mode enabled while the build was running was installed on the old
	// base; replay it on the rebuilt index before installing, or searches
	// in that mode would fail on this shard after the swap. This holds
	// mut.mu exactly as enableAll does — searches are unaffected, mutations
	// wait.
	if err := newIdx.inherit(base, m.enables); err != nil {
		m.mu.Unlock()
		return false, compactInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	var leadShare float64
	if res, ok := newIdx.modes[DDCRes].dco.(*ddc.Res); ok {
		leadShare = res.LeadShare()
	}
	seg.mu.Lock()
	swapStart := time.Now()
	sx.shards[s] = newIdx
	sx.globalID[s] = ids
	seg.mem = seg.mem.CompactAfter(seqSnap)
	seg.dead.Subtract(deadSnap)
	seg.baseHas = newBaseHas
	seg.recountHidden()
	swapDur := time.Since(swapStart)
	seg.mu.Unlock()
	m.mu.Unlock()

	return true, compactInfo{
		shard:     s,
		rows:      len(ids),
		memRows:   len(memIDs),
		dead:      deadSnap.Len(),
		buildDur:  buildDur,
		swapDur:   swapDur,
		leadShare: leadShare,
	}, nil
}

// segDepth returns one shard's pending segment sizes.
func (sx *ShardedIndex) segDepth(s int) (mem, dead int) {
	seg := sx.mut.segs[s]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	return seg.mem.Len(), seg.dead.Len()
}
