package resinfer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"resinfer/internal/core"
	"resinfer/internal/fault"
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

// This file is the streaming-ingestion substrate of ShardedIndex. Every
// shard, mutable or not, pairs its base index with an append-only memtable
// segment (exact brute-force scan, so recall on fresh vectors is perfect)
// and a row mask over the base, and every probe reads the base through the
// mask and then the memtable (see probe); on an index that never mutates
// the memtable stays empty and the mask nil. A mutable index adds the
// writer state (mutState): mutations fill the memtable and set mask bits,
// and a compaction rebuilds a shard's base from the live rows off the
// serving path and hot-swaps it under the shard's RWMutex with zero search
// downtime. The public lifecycle wrapper — background compaction,
// counters, persistence — lives in MutableIndex (mutable.go).

// recordedEnable remembers one Enable/EnableWithTraining call so a
// compacted shard's rebuilt base index gets the same comparators with the
// same configuration (built around the rotation of the base it replaces;
// see compactShard).
type recordedEnable struct {
	mode         Mode
	trainQueries [][]float32
	opts         *Options
}

// shardSeg is one shard's segments. Its RWMutex guards the shard's entire
// serving state — sx.shards[s], sx.globalID[s], mem and mask — against
// searches: searches hold the read lock for the duration of one shard
// probe; mutations and the compaction hot swap take the write lock
// briefly.
//
// The mask is the one record of the base rows a search must not answer: a
// masked row whose ID the memtable holds is shadowed by that fresher
// version, and one whose ID it does not hold is deleted.
type shardSeg struct {
	mu         sync.RWMutex
	mem        *stream.Memtable
	baseHas    map[int]int32 // global ID → local row of the current base segment (nil until enableMutation)
	mask       core.RowMask  // base rows hidden (deleted or shadowed by a memtable row); nil while none is
	compacting bool          // claimed by a running compaction (guarded by mutState.mu)
}

// hide masks the base row of global ID gid, if the base holds one. A base
// row, once deleted or shadowed, stays hidden until a swap installs a new
// base, so hide only ever sets bits. The caller holds mu, or owns a seg no
// search can reach yet.
func (seg *shardSeg) hide(gid int) {
	if l, ok := seg.baseHas[gid]; ok {
		if seg.mask == nil {
			seg.mask = core.NewRowMask(len(seg.baseHas))
		}
		seg.mask.Set(int(l))
	}
}

// deleted counts the shard's deleted base rows: the masked rows less those
// a memtable row shadows. The caller holds mu (read or write).
func (seg *shardSeg) deleted() int {
	n := seg.mask.Count()
	for i := 0; i < seg.mem.Len(); i++ {
		if _, shadows := seg.baseHas[seg.mem.ID(i)]; shadows {
			n--
		}
	}
	return n
}

// mutState is the index-wide writer state; the segments it writes are
// ShardedIndex.segs. Its mutex serializes mutations (Add/Upsert/Delete),
// compaction swaps, Enable calls, and Save on a mutable index; searches
// never take it.
type mutState struct {
	mu        sync.Mutex
	compacted *sync.Cond  // on mu; broadcast when any shardSeg.compacting clears
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

// enableMutation installs the writer state on a freshly built or loaded
// sharded index, whose segments are still empty. indexOpts is retained for
// compaction rebuilds.
func (sx *ShardedIndex) enableMutation(indexOpts *Options) {
	m := &mutState{
		owner:     make(map[int]int, sx.n),
		indexOpts: indexOpts,
	}
	m.compacted = sync.NewCond(&m.mu)
	maxID := -1
	for s, seg := range sx.segs {
		seg.baseHas = make(map[int]int32, len(sx.globalID[s]))
		for l, gid := range sx.globalID[s] {
			m.owner[gid] = s
			seg.baseHas[gid] = int32(l)
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
		s = m.rr % len(sx.segs)
		fresh = true
	} else if prev, live := m.owner[id]; live {
		s = prev // replacement routes to the owning shard so the old row is shadowed there
	} else {
		s = m.rr % len(sx.segs)
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
	seg := sx.segs[s]
	seg.mu.Lock()
	seg.mem.Add(id, row)
	// The memtable row shadows the ID's base row, if any: the row mask
	// hides it inside the base's scan and walk.
	seg.hide(id)
	seg.mu.Unlock()
	return id, nil
}

// mutDelete removes the row with the given global ID, reporting whether it
// was live. The row disappears from searches immediately (a memtable row
// is dropped in place, a base row masked) and its storage is reclaimed by
// the next compaction of the owning shard. A row a running compaction is
// folding into its new base is masked there at the swap (see
// compactShard).
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
	seg := sx.segs[s]
	seg.mu.Lock()
	seg.mem.Remove(id)
	seg.hide(id)
	seg.mu.Unlock()
	delete(m.owner, id)
	m.liveN.Add(-1)
	return true, nil
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

// compactShard rebuilds shard s from its live rows — the unmasked base
// rows plus the memtable — builds every recorded comparator over them
// around the rotation the old base used (see inherit; nothing short of
// rebuilding the index trains a rotation again), and hot-swaps the result
// in under the shard's write lock.
// Searches keep running against the old base for the whole build; the
// swap itself is a few pointer stores. When another compaction holds the
// shard, wait decides between leaving the shard to it and waiting for it
// to finish and then compacting what it left behind — rows that arrived
// after its snapshot. It returns false when there was nothing to do (no
// hidden base row and no memtable row, an unawaited concurrent
// compaction, or every row is deleted).
func (sx *ShardedIndex) compactShard(s int, wait bool) (bool, CompactionInfo, error) {
	m := sx.mut
	if s < 0 || s >= len(sx.segs) {
		return false, CompactionInfo{}, fmt.Errorf("resinfer: shard %d out of range", s)
	}
	m.mu.Lock()
	seg := sx.segs[s]
	for seg.compacting {
		if !wait {
			m.mu.Unlock()
			return false, CompactionInfo{}, nil
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
	// the mask are copied.
	seg.mu.RLock()
	base := sx.shards[s]
	baseIDs := sx.globalID[s]
	memIDs, memVecs, seqSnap := seg.mem.Snapshot()
	maskSnap := slices.Clone(seg.mask)
	deleted := seg.deleted()
	seg.mu.RUnlock()

	if len(memIDs) == 0 && maskSnap.Count() == 0 {
		return false, CompactionInfo{}, nil
	}

	// The rebuilt base holds the unmasked base rows (keep lists them), then
	// the memtable rows.
	keep := make([]int, 0, len(baseIDs))
	ids := make([]int, 0, len(baseIDs)+len(memIDs))
	for local, gid := range baseIDs {
		if !maskSnap.Has(local) {
			keep = append(keep, local)
			ids = append(ids, gid)
		}
	}
	ids = append(ids, memIDs...)
	if len(ids) == 0 {
		// Every row of the shard is deleted; there is nothing to build an
		// index over. Leave the segments in place — searches already filter
		// everything out — and let a future insert trigger the rebuild.
		return false, CompactionInfo{}, nil
	}

	if fault.Active() {
		if ferr := fault.CheckArg(fault.SiteCompactBuild, s); ferr != nil {
			return false, CompactionInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, ferr)
		}
	}
	buildStart := time.Now()
	mat, ms, basis, err := base.compactRows(keep, memIDs, memVecs)
	var newIdx *Index
	if err == nil {
		newIdx, err = buildIndex(mat, ms, basis, sx.kind, opts.withDefaults(), func() *pca.Model { return base.model })
	}
	if err != nil {
		return false, CompactionInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	if err := newIdx.inherit(base, enables); err != nil {
		return false, CompactionInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	buildDur := time.Since(buildStart)

	newBaseHas := make(map[int]int32, len(ids))
	for l, gid := range ids {
		newBaseHas[gid] = int32(l)
	}

	if fault.Active() {
		if ferr := fault.CheckArg(fault.SiteCompactSwap, s); ferr != nil {
			return false, CompactionInfo{}, fmt.Errorf("resinfer: swapping compacted shard %d: %w", s, ferr)
		}
	}
	// Hot swap: everything after the snapshot point survives — memtable
	// rows written during the build stay, and the new mask hides the rows
	// of the rebuilt base that the build's mutations made stale: an ID this
	// shard no longer owns (deleted, or deleted and re-added on another
	// shard) and an ID the surviving memtable holds (upserted again). Both
	// are read under mut.mu, which every mutation holds, so the new
	// segments are computed before the shard's write lock is taken.
	m.mu.Lock()
	// A mode enabled while the build was running was installed on the old
	// base; replay it on the rebuilt index before installing, or searches
	// in that mode would fail on this shard after the swap. This holds
	// mut.mu exactly as enableAll does — searches are unaffected, mutations
	// wait.
	if err := newIdx.inherit(base, m.enables); err != nil {
		m.mu.Unlock()
		return false, CompactionInfo{}, fmt.Errorf("resinfer: compacting shard %d: %w", s, err)
	}
	var leadShare float64 // over the DeltaD ddc-res's first Enable ran with
	if res := newIdx.modes[DDCRes].dco; res != nil {
		d := newIdx.opts.DeltaD
		if i := slices.IndexFunc(m.enables, func(e recordedEnable) bool { return e.mode == DDCRes }); i >= 0 && m.enables[i].opts != nil {
			d = m.enables[i].opts.withDefaults().DeltaD
		}
		leadShare = res.Model().VarianceExplained(d)
	}
	if basis == nil {
		sx.model = nil // no longer the model of the shards' rows
	}
	mem := seg.mem.CompactAfter(seqSnap)
	var mask core.RowMask
	for l, gid := range ids {
		if o, live := m.owner[gid]; live && o == s && !mem.Has(gid) {
			continue
		}
		if mask == nil {
			mask = core.NewRowMask(len(ids))
		}
		mask.Set(l)
	}
	seg.mu.Lock()
	swapStart := time.Now()
	sx.shards[s] = newIdx
	sx.globalID[s] = ids
	seg.mem = mem
	seg.baseHas = newBaseHas
	seg.mask = mask
	swapDur := time.Since(swapStart)
	seg.mu.Unlock()
	m.mu.Unlock()

	return true, CompactionInfo{
		Shard:         s,
		Rows:          len(ids),
		MemtableRows:  len(memIDs),
		Tombstones:    deleted,
		BuildDuration: buildDur,
		SwapDuration:  swapDur,
		LeadShare:     leadShare,
	}, nil
}

// segDepth returns one shard's memtable rows and deleted base rows.
func (sx *ShardedIndex) segDepth(s int) (mem, deleted int) {
	seg := sx.segs[s]
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	return seg.mem.Len(), seg.deleted()
}
