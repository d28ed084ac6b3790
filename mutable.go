package resinfer

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"resinfer/internal/persist"
	"resinfer/internal/stream"
	"resinfer/internal/wal"
)

// Default streaming-ingestion knobs, materialized by
// MutableOptions.withDefaults.
const (
	// DefaultCompactThreshold is the per-shard memtable depth that
	// triggers a background compaction.
	DefaultCompactThreshold = 1024
)

// streamMagic marks the segment-aware mutable container: a header (ID
// allocator, compaction knobs, WAL position, recorded comparator
// trainings), the embedded RESSHARD3 sharded payload, and one memtable +
// deleted-rows section per shard — so an index saved mid-compaction, with a
// non-empty memtable and deleted base rows, round-trips losslessly. The
// header's applied-WAL-LSN field is the durability anchor recovery replays
// the log against. Version 3 embeds RESSHARD3 and records an enable as its
// mode, options and training queries alone.
const streamMagic = "RESSTRM3"

// deletedMagic marks a shard's deleted-rows section of a RESSTRM3 stream:
// the sorted global IDs of its deleted base rows (see shardSeg).
const deletedMagic = "RISTTMB1"

// MutableOptions tunes a streaming (mutable) sharded index. The zero
// value gives round-robin sharding, a 1024-row compaction threshold, and
// background auto-compaction.
type MutableOptions struct {
	// Strategy assigns the initial data rows to shards (default
	// RoundRobin). Fresh inserts always round-robin regardless.
	Strategy ShardStrategy
	// SearchWorkers bounds how many shards one Search queries
	// concurrently (default GOMAXPROCS).
	SearchWorkers int
	// Index configures each sub-index (see Options); it is also the
	// configuration compaction rebuilds shards with.
	Index *Options
	// CompactThreshold is the per-shard memtable depth that triggers a
	// background compaction (default 1024).
	CompactThreshold int
	// TombstoneThreshold is the per-shard count of deleted base rows that
	// triggers a background compaction (default CompactThreshold).
	TombstoneThreshold int
	// DisableAutoCompact turns the background compactor off; segments
	// then only fold back into the base via explicit Compact calls.
	DisableAutoCompact bool
	// WALDir, when non-empty, makes mutations crash-durable: every
	// Add/Upsert/Delete is appended to a write-ahead log in this
	// directory before it is applied, records found there are replayed
	// at construction, and each completed compaction checkpoints the
	// full state into the directory and trims the log. WAL settings are
	// deployment-local: they are never persisted by Save and always come
	// from the options at hand.
	WALDir string
	// WALSync is the log's fsync policy (default WALSyncAlways); see
	// WALSyncAlways, WALSyncInterval, WALSyncNone.
	WALSync WALSync
}

func (o *MutableOptions) withDefaults() MutableOptions {
	var out MutableOptions
	if o != nil {
		out = *o
	}
	if out.CompactThreshold <= 0 {
		out.CompactThreshold = DefaultCompactThreshold
	}
	if out.TombstoneThreshold <= 0 {
		out.TombstoneThreshold = out.CompactThreshold
	}
	return out
}

// MutationStats is the streaming-ingestion counter set surfaced by
// MutableIndex.MutationStats (and, through internal/server, at /stats).
type MutationStats struct {
	// Inserts counts Add and Upsert calls accepted.
	Inserts int64 `json:"inserts"`
	// Deletes counts Delete calls that removed a live row.
	Deletes int64 `json:"deletes"`
	// Compactions counts completed shard compactions (hot swaps).
	Compactions int64 `json:"compactions"`
	// CompactErrors counts failed compaction attempts.
	CompactErrors int64 `json:"compact_errors"`
	// MemtableRows is the current total memtable depth across shards.
	MemtableRows int `json:"memtable_rows"`
	// Tombstones is the current total of deleted base rows awaiting
	// compaction across shards.
	Tombstones int `json:"tombstones"`
	// LastSwapMicros is the write-lock hold time of the most recent hot
	// swap — the only moment a compaction can delay searches.
	LastSwapMicros int64 `json:"last_swap_micros"`
	// MaxSwapMicros is the worst hot-swap hold time observed.
	MaxSwapMicros int64 `json:"max_swap_micros"`
	// LastBuildMillis is the off-path rebuild+retrain time of the most
	// recent compaction.
	LastBuildMillis int64 `json:"last_build_millis"`
	// WALEnabled reports whether mutations go through a write-ahead log.
	WALEnabled bool `json:"wal_enabled,omitempty"`
	// WALLastLSN is the sequence number of the newest logged record.
	WALLastLSN uint64 `json:"wal_last_lsn,omitempty"`
	// WALSegments is how many log segment files exist (bounded by
	// checkpoint trimming).
	WALSegments int `json:"wal_segments,omitempty"`
	// WALCheckpoints counts checkpoint snapshots written after
	// compactions.
	WALCheckpoints int64 `json:"wal_checkpoints,omitempty"`
	// WALCheckpointErrors counts failed checkpoint attempts (the index
	// stays correct; the log just keeps more history than necessary).
	WALCheckpointErrors int64 `json:"wal_checkpoint_errors,omitempty"`
}

// MutableIndex is a sharded AKNN index whose corpus can change while it
// serves: Add/Upsert append to per-shard memtable segments (scanned
// exactly, so recall on fresh vectors is perfect), Delete hides rows
// from searches immediately, and a background compactor folds both
// back into rebuilt base indexes — rebuilding their distance comparators
// around the rotations the index was enabled with — then hot-swaps them in
// with zero search downtime.
//
// Concurrency: any number of goroutines may search concurrently with
// mutations and compactions. Mutations serialize internally. Global IDs
// are stable for the life of a row: Add assigns them, searches report
// them, and compaction preserves them.
//
// Everything that reads — Search, SearchInto, SearchCtx, SearchBatch,
// SearchBatchCtx, Enable*, Len, Modes, GroundTruthSearch, the hedging
// hooks — is the embedded ShardedIndex's own method, so results reflect
// every mutation that completed before the call and never include deleted
// rows; MutableIndex itself adds only what differs: mutation, compaction,
// persistence with segments, and the WAL.
type MutableIndex struct {
	*ShardedIndex
	cfg MutableOptions

	inserts        atomic.Int64
	deletes        atomic.Int64
	compactions    atomic.Int64
	compactErrors  atomic.Int64
	lastSwapMicros atomic.Int64
	maxSwapMicros  atomic.Int64
	lastBuildMs    atomic.Int64
	walCkpts       atomic.Int64
	walCkptErrs    atomic.Int64

	walRec WALRecovery // what construction replayed (zero without WAL)

	// compactObs, when set, receives one CompactionInfo per completed
	// shard compaction. Atomic because the background compactor may
	// already be running when the observer is installed.
	compactObs atomic.Pointer[func(CompactionInfo)]

	kick     chan struct{}
	done     chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup
}

// NewMutable builds a mutable sharded index of the given kind over the
// initial data (row index = global ID, exactly as with NewSharded) and
// starts its background compactor. With WALDir set, mutation records
// already in the directory are replayed onto the fresh index before it
// is returned — the recovery path for deterministically rebuilt corpora
// that crashed before their first compaction checkpoint. A directory
// that does hold a checkpoint snapshot is refused: rebuilding over it
// would silently ignore durable state; use RecoverMutable.
func NewMutable(data [][]float32, kind IndexKind, nShards int, opts *MutableOptions) (*MutableIndex, error) {
	o := opts.withDefaults()
	sx, err := NewSharded(data, kind, nShards, &ShardOptions{
		Strategy:      o.Strategy,
		SearchWorkers: o.SearchWorkers,
		Index:         o.Index,
	})
	if err != nil {
		return nil, err
	}
	sx.enableMutation(o.Index)
	var rec WALRecovery
	if o.WALDir != "" {
		if _, err := os.Stat(walCheckpointPath(o.WALDir)); err == nil {
			return nil, fmt.Errorf(
				"resinfer: %s holds a checkpoint snapshot; use RecoverMutable instead of rebuilding over it",
				o.WALDir)
		}
		rec, err = attachWAL(sx, o, 0)
		if err != nil {
			return nil, err
		}
	}
	mx := newMutableAround(sx, o)
	mx.walRec = rec
	return mx, nil
}

// newMutableAround wraps an already mutation-enabled ShardedIndex and
// starts the compactor (shared by NewMutable and LoadMutable).
func newMutableAround(sx *ShardedIndex, o MutableOptions) *MutableIndex {
	mx := &MutableIndex{
		ShardedIndex: sx,
		cfg:          o,
		kick:         make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	if !o.DisableAutoCompact {
		mx.wg.Add(1)
		go mx.compactorLoop()
	}
	return mx
}

// Close stops the background compactor and closes the write-ahead log
// if one is attached. Pending memtable rows and deleted base rows stay
// in place (and persist through Save); searches keep working. Without a
// WAL, mutations and explicit Compact calls keep working too; with one,
// further mutations fail — the durability guarantee would otherwise be
// silently void.
func (mx *MutableIndex) Close() {
	mx.closeOne.Do(func() { close(mx.done) })
	mx.wg.Wait()
	if w := mx.mut.wal; w != nil {
		_ = w.Close()
	}
}

// Add ingests a fresh vector and returns its assigned global ID.
func (mx *MutableIndex) Add(v []float32) (int, error) { return mx.Upsert(-1, v) }

// Upsert writes a vector under an explicit global ID (replacing the live
// row if one exists); a negative ID asks for auto-assignment. It returns
// the row's final ID.
func (mx *MutableIndex) Upsert(id int, v []float32) (int, error) {
	gid, err := mx.mutUpsert(id, v)
	if err != nil {
		return 0, err
	}
	mx.inserts.Add(1)
	mx.maybeKick()
	return gid, nil
}

// Delete removes the row with the given global ID, reporting whether it
// was live.
func (mx *MutableIndex) Delete(id int) (bool, error) {
	ok, err := mx.mutDelete(id)
	if err != nil {
		return false, err
	}
	if ok {
		mx.deletes.Add(1)
		mx.maybeKick()
	}
	return ok, nil
}

// Compact synchronously compacts every shard with pending segments,
// regardless of thresholds, and returns how many shards it rebuilt. It is
// a barrier: a shard the background compactor is rebuilding is waited for
// and then compacted again, so every row written before the call is in a
// base segment when it returns. Searches keep running throughout. With a
// WAL attached, one checkpoint covering the whole pass is written at the
// end.
func (mx *MutableIndex) Compact() (int, error) {
	var compacted int
	var firstErr error
	for s := 0; s < mx.NumShards(); s++ {
		did, err := mx.runCompact(s, true)
		if did {
			compacted++
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if compacted > 0 {
		if err := mx.maybeWALCheckpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return compacted, firstErr
}

// maybeKick wakes the background compactor; wake-ups coalesce through
// the 1-buffered channel.
func (mx *MutableIndex) maybeKick() {
	if mx.cfg.DisableAutoCompact {
		return
	}
	select {
	case mx.kick <- struct{}{}:
	default:
	}
}

// compactorLoop waits for mutation kicks and compacts every shard whose
// memtable depth or deleted base-row count crossed its threshold.
// Compactions run one at a time so at most one shard rebuild competes with
// serving for CPU.
func (mx *MutableIndex) compactorLoop() {
	defer mx.wg.Done()
	for {
		select {
		case <-mx.done:
			return
		case <-mx.kick:
		}
		var compacted bool
		for s := 0; s < mx.NumShards(); s++ {
			select {
			case <-mx.done:
				return
			default:
			}
			mem, deleted := mx.segDepth(s)
			if mem >= mx.cfg.CompactThreshold || deleted >= mx.cfg.TombstoneThreshold {
				if did, _ := mx.runCompact(s, false); did {
					compacted = true
				}
			}
		}
		// One checkpoint covers the whole sweep — a wave that rebuilds
		// every shard serializes the full state once, not once per shard.
		if compacted {
			mx.maybeWALCheckpoint()
		}
	}
}

// runCompact compacts one shard and records the outcome counters; wait is
// compactShard's.
func (mx *MutableIndex) runCompact(s int, wait bool) (bool, error) {
	did, info, err := mx.compactShard(s, wait)
	if err != nil {
		mx.compactErrors.Add(1)
		return false, err
	}
	if !did {
		return false, nil
	}
	mx.compactions.Add(1)
	mx.lastBuildMs.Store(info.BuildDuration.Milliseconds())
	swap := info.SwapDuration.Microseconds()
	mx.lastSwapMicros.Store(swap)
	for {
		cur := mx.maxSwapMicros.Load()
		if swap <= cur || mx.maxSwapMicros.CompareAndSwap(cur, swap) {
			break
		}
	}
	if fn := mx.compactObs.Load(); fn != nil {
		(*fn)(info)
	}
	return true, nil
}

// CompactionInfo describes one completed shard compaction, delivered to
// the observer installed with SetCompactionObserver.
type CompactionInfo struct {
	// Shard is the compacted shard.
	Shard int
	// Rows is the row count of the rebuilt base segment.
	Rows int
	// MemtableRows is how many memtable rows were folded in.
	MemtableRows int
	// Tombstones is how many deleted base rows the rebuild dropped.
	Tombstones int
	// BuildDuration is the off-path rebuild + retrain time.
	BuildDuration time.Duration
	// SwapDuration is the write-lock hold time of the hot swap.
	SwapDuration time.Duration
	// LeadShare is the share of Σσ² that the rotation the rebuilt base
	// inherited puts in its first DeltaD rotated dimensions, measured on the
	// rebuilt shard's rows (0 when ddc-res is not enabled). A PCA rotation
	// starts well above DeltaD/D, the share of a random rotation, and sinks
	// towards it as the data drifts away from what the rotation was trained
	// on: the signal for rebuilding the index.
	LeadShare float64
}

// SetCompactionObserver installs fn to be called after every completed
// shard compaction (from the compacting goroutine — background
// compactor or an explicit Compact caller). Safe to install at any
// time; fn must be safe for concurrent use with itself.
func (mx *MutableIndex) SetCompactionObserver(fn func(CompactionInfo)) {
	if fn == nil {
		mx.compactObs.Store(nil)
		return
	}
	mx.compactObs.Store(&fn)
}

// SetWALObserver installs fn on the attached write-ahead log to
// receive per-append instrumentation (total append latency and the
// fsync portion). It reports whether a WAL is attached; without one it
// is a no-op returning false.
func (mx *MutableIndex) SetWALObserver(fn func(appendDur, syncDur time.Duration)) bool {
	w := mx.mut.wal
	if w == nil {
		return false
	}
	w.SetObserver(fn)
	return true
}

// maybeWALCheckpoint makes the current state the WAL's durability point
// after a compaction pass (no-op without a WAL). A failed checkpoint
// leaves the index correct — the log merely keeps more replay history —
// so callers surface the error but continue serving.
func (mx *MutableIndex) maybeWALCheckpoint() error {
	if mx.mut.wal == nil {
		return nil
	}
	if err := mx.walCheckpoint(); err != nil {
		mx.walCkptErrs.Add(1)
		return fmt.Errorf("resinfer: wal checkpoint after compaction: %w", err)
	}
	return nil
}

// Degraded returns the error that flipped the index read-only after a
// persistent WAL failure, or nil while writes are healthy. Searches
// keep serving in either state; internal/server feeds this into
// GET /readyz.
func (mx *MutableIndex) Degraded() error {
	return mx.mut.degradedErr()
}

// ClearDegraded re-arms writes after degradation: the WAL's fail-stop
// state is recovered (the poisoned segment is abandoned; the next append
// opens a fresh one) and the degraded flag clears. It fails — and the
// index stays degraded — if the log cannot be recovered. A no-op on a
// healthy index. Call it only once the underlying fault (a full or
// failing disk, usually) is actually fixed; an immediately recurring
// append failure just degrades the index again.
func (mx *MutableIndex) ClearDegraded() error {
	m := mx.mut
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.degraded.Load() == nil {
		return nil
	}
	if m.wal != nil {
		if err := m.wal.Recover(); err != nil {
			return fmt.Errorf("resinfer: clearing degraded state: %w", err)
		}
	}
	m.degraded.Store(nil)
	return nil
}

// SyncWAL forces an fsync of the attached write-ahead log (a no-op
// without one); the graceful-shutdown drain calls it so every
// acknowledged mutation is on disk before the process exits.
func (mx *MutableIndex) SyncWAL() error {
	w := mx.mut.wal
	if w == nil {
		return nil
	}
	return w.Sync()
}

// Checkpoint writes a checkpoint snapshot covering the current state
// and trims the log behind it (a no-op without a WAL) — the same
// operation a completed compaction pass performs. The graceful-shutdown
// drain calls it so a clean stop leaves nothing to replay.
func (mx *MutableIndex) Checkpoint() error {
	return mx.maybeWALCheckpoint()
}

// AppliedLSN returns the LSN of the last WAL record applied to this
// index: what a snapshot taken now would cover. It is 0 when no WAL is
// attached and no WAL-backed snapshot was loaded. The replication
// primary reports it so followers can tell when they have caught up.
func (mx *MutableIndex) AppliedLSN() uint64 {
	return mx.mut.appliedLSN.Load()
}

// WALReplay replays every record of the attached log with LSN > after
// into fn — the tail-serving half of replication catch-up: the primary
// streams the records a follower's cursor is missing. It returns
// ErrNoWAL when the index has no log attached.
func (mx *MutableIndex) WALReplay(after uint64, fn func(wal.Record) error) (wal.ReplayStats, error) {
	w := mx.mut.wal
	if w == nil {
		return wal.ReplayStats{}, ErrNoWAL
	}
	return w.Replay(after, fn)
}

// ErrNoWAL reports a WAL-dependent operation on an index running
// without a write-ahead log.
var ErrNoWAL = errors.New("resinfer: no write-ahead log attached")

// MutationStats snapshots the streaming counters.
func (mx *MutableIndex) MutationStats() MutationStats {
	st := MutationStats{
		Inserts:         mx.inserts.Load(),
		Deletes:         mx.deletes.Load(),
		Compactions:     mx.compactions.Load(),
		CompactErrors:   mx.compactErrors.Load(),
		LastSwapMicros:  mx.lastSwapMicros.Load(),
		MaxSwapMicros:   mx.maxSwapMicros.Load(),
		LastBuildMillis: mx.lastBuildMs.Load(),
	}
	for s := 0; s < mx.NumShards(); s++ {
		mem, deleted := mx.segDepth(s)
		st.MemtableRows += mem
		st.Tombstones += deleted
	}
	if w := mx.mut.wal; w != nil {
		st.WALEnabled = true
		st.WALLastLSN = w.LastLSN()
		st.WALSegments = w.SegmentCount()
		st.WALCheckpoints = mx.walCkpts.Load()
		st.WALCheckpointErrors = mx.walCkptErrs.Load()
	}
	return st
}

// WALSyncPolicy describes the attached WAL's fsync policy ("none" when
// the index runs without a WAL) — a build/deploy property surfaced by
// the server's build-info metric.
func (mx *MutableIndex) WALSyncPolicy() string {
	if mx.mut.wal == nil {
		return "none"
	}
	return mx.cfg.WALSync.String()
}

// Save serializes the mutable index — the sharded payload plus every
// shard's memtable, the IDs of its deleted base rows and the ID allocator
// — so a mid-compaction state (memtable non-empty, deletes pending)
// round-trips losslessly. Mutations and hot swaps pause for the duration
// of the write; searches do not.
func (mx *MutableIndex) Save(w io.Writer) error {
	_, err := mx.save(w)
	return err
}

// save is Save returning the applied-WAL-LSN the snapshot covers — the
// durability point walCheckpoint hands to the log's trimmer.
func (mx *MutableIndex) save(w io.Writer) (uint64, error) {
	m := mx.mut
	m.mu.Lock()
	defer m.mu.Unlock()
	// Stable under m.mu: mutations advance it only while holding the
	// same lock.
	walLSN := m.appliedLSN.Load()
	pw := persist.NewWriter(w)
	pw.Magic(streamMagic)
	pw.Int(m.nextID)
	pw.Int(m.rr)
	pw.I64(m.liveN.Load())
	pw.Int(mx.cfg.CompactThreshold)
	pw.Int(mx.cfg.TombstoneThreshold)
	pw.Bool(mx.cfg.DisableAutoCompact)
	pw.U64(walLSN)
	encodeOptions(pw, m.indexOpts)
	pw.Int(len(m.enables))
	for _, e := range m.enables {
		pw.String(string(e.mode))
		encodeOptions(pw, e.opts)
		pw.F32Mat(e.trainQueries)
	}
	if err := mx.encodeSharded(pw); err != nil {
		return 0, err
	}
	for s, seg := range mx.segs {
		seg.mu.RLock()
		seg.mem.Encode(pw)
		var deleted []int
		for l, gid := range mx.globalID[s] {
			if seg.mask.Has(l) && !seg.mem.Has(gid) {
				deleted = append(deleted, gid)
			}
		}
		seg.mu.RUnlock()
		slices.Sort(deleted)
		pw.Magic(deletedMagic)
		pw.Ints(deleted)
	}
	return walLSN, pw.Flush()
}

// LoadMutable deserializes a mutable index written by Save and starts
// its background compactor. opts may be nil; when given, its
// deployment-local knobs overlay the persisted configuration: WALDir
// and WALSync always (they are never persisted), the compaction
// thresholds when explicitly non-zero. With a WALDir, every log record
// newer than the persisted state (its applied-WAL-LSN header field) is
// replayed onto the loaded index before it is returned, and subsequent
// mutations append to the log.
func LoadMutable(r io.Reader, opts *MutableOptions) (*MutableIndex, error) {
	pr := persist.NewReader(r)
	pr.Magic(streamMagic)
	nextID := pr.Int()
	rr := pr.Int()
	liveN := pr.I64()
	cfg := MutableOptions{
		CompactThreshold:   pr.Int(),
		TombstoneThreshold: pr.Int(),
		DisableAutoCompact: pr.Bool(),
	}
	walLSN := pr.U64()
	if opts != nil {
		cfg.WALDir = opts.WALDir
		cfg.WALSync = opts.WALSync
		if opts.CompactThreshold > 0 {
			cfg.CompactThreshold = opts.CompactThreshold
		}
		if opts.TombstoneThreshold > 0 {
			cfg.TombstoneThreshold = opts.TombstoneThreshold
		}
		if opts.DisableAutoCompact {
			cfg.DisableAutoCompact = true
		}
	}
	indexOpts := decodeOptions(pr)
	nEnables := pr.Int()
	if err := pr.Err(); err != nil {
		return nil, err
	}
	if nEnables < 0 || nEnables > 64 {
		return nil, errors.New("resinfer: corrupt recorded-enable count")
	}
	if rr < 0 || nextID < 0 || liveN < 0 {
		return nil, fmt.Errorf("resinfer: corrupt stream header (nextID=%d rr=%d liveN=%d)", nextID, rr, liveN)
	}
	enables := make([]recordedEnable, 0, nEnables)
	for i := 0; i < nEnables; i++ {
		e := recordedEnable{mode: Mode(pr.String())}
		e.opts = decodeOptions(pr)
		e.trainQueries = pr.F32Mat()
		if err := pr.Err(); err != nil {
			return nil, err
		}
		if len(e.trainQueries) == 0 {
			e.trainQueries = nil
		}
		enables = append(enables, e)
	}
	sx, err := decodeSharded(pr)
	if err != nil {
		return nil, err
	}
	sx.enableMutation(indexOpts)
	m := sx.mut
	m.enables = enables
	m.rr = rr
	for s, seg := range sx.segs {
		mem, err := stream.DecodeMemtable(pr)
		if err != nil {
			return nil, fmt.Errorf("resinfer: decoding shard %d memtable: %w", s, err)
		}
		if mem.Dim() != sx.userDim {
			return nil, fmt.Errorf("resinfer: shard %d memtable dim %d, index expects %d",
				s, mem.Dim(), sx.userDim)
		}
		pr.Magic(deletedMagic)
		deleted := pr.Ints()
		if err := pr.Err(); err != nil {
			return nil, fmt.Errorf("resinfer: decoding shard %d deleted rows: %w", s, err)
		}
		// Mask the deleted and the shadowed base rows (enableMutation saw
		// an empty memtable). hide skips an ID the base does not hold: a
		// stream may list a deleted memtable-only row.
		seg.mem = mem
		for _, gid := range deleted {
			seg.hide(gid)
		}
		for i := 0; i < mem.Len(); i++ {
			seg.hide(mem.ID(i))
		}
	}
	// Rebuild the ownership map against the decoded segments: masked base
	// rows are not live, memtable rows are.
	clear(m.owner)
	maxID := -1
	for s, seg := range sx.segs {
		for l, gid := range sx.globalID[s] {
			if gid > maxID {
				maxID = gid
			}
			if !seg.mask.Has(l) {
				m.owner[gid] = s
			}
		}
	}
	for s, seg := range sx.segs {
		mem := seg.mem
		for i := 0; i < mem.Len(); i++ {
			id := mem.ID(i)
			if id > maxID {
				maxID = id
			}
			m.owner[id] = s
		}
	}
	if nextID <= maxID {
		nextID = maxID + 1
	}
	m.nextID = nextID
	m.liveN.Store(int64(len(m.owner)))
	if got := int64(len(m.owner)); got != liveN {
		return nil, fmt.Errorf("resinfer: stream records %d live rows, segments yield %d", liveN, got)
	}
	m.appliedLSN.Store(walLSN)
	var rec WALRecovery
	if cfg.WALDir != "" {
		rec, err = attachWAL(sx, cfg, walLSN)
		if err != nil {
			return nil, err
		}
	}
	mx := newMutableAround(sx, cfg)
	mx.walRec = rec
	return mx, nil
}

// SaveFile writes the mutable index to a file.
func (mx *MutableIndex) SaveFile(path string) error { return saveFile(path, mx.Save) }

// LoadMutableFile reads a mutable index from a file written by SaveFile;
// opts behaves exactly as in LoadMutable.
func LoadMutableFile(path string, opts *MutableOptions) (*MutableIndex, error) {
	return loadFile(path, func(r io.Reader) (*MutableIndex, error) { return LoadMutable(r, opts) })
}

// encodeOptions writes an optional Options block field by field (the
// struct is small and flat; an explicit field list keeps the stream
// stable if the struct grows).
func encodeOptions(pw *persist.Writer, o *Options) {
	pw.Bool(o != nil)
	if o == nil {
		return
	}
	pw.Int(o.HNSWM)
	pw.Int(o.HNSWEfConstruction)
	pw.Int(o.IVFNList)
	pw.F64(o.ADSEpsilon0)
	pw.F64(o.ResMultiplier)
	pw.Int(o.DeltaD)
	pw.F64(o.TargetRecall)
	pw.Int(o.OPQSubspaces)
	pw.String(string(o.Metric))
	pw.I64(o.Seed)
}

// decodeOptions reads a block written by encodeOptions.
func decodeOptions(pr *persist.Reader) *Options {
	if !pr.Bool() {
		return nil
	}
	o := &Options{}
	o.HNSWM = pr.Int()
	o.HNSWEfConstruction = pr.Int()
	o.IVFNList = pr.Int()
	o.ADSEpsilon0 = pr.F64()
	o.ResMultiplier = pr.F64()
	o.DeltaD = pr.Int()
	o.TargetRecall = pr.F64()
	o.OPQSubspaces = pr.Int()
	o.Metric = MetricKind(pr.String())
	o.Seed = pr.I64()
	return o
}
