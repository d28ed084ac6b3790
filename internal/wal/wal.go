// Package wal provides the write-ahead log behind crash-durable
// streaming ingestion: an append-only stream of length-prefixed,
// CRC32-checksummed mutation records (upsert / delete / compaction
// checkpoint) written to segment files in a directory. The owning index
// appends a record BEFORE applying the mutation it describes, so after
// an unclean shutdown the full mutation history since the last durable
// snapshot can be replayed onto a reloaded (or deterministically
// rebuilt) index.
//
// Every record is one frame (frame.go): appendFrame writes it, to a
// segment or to a replica's tail stream (stream.go), and frameReader
// reads it back, from a segment at recovery or from a stream on a
// follower. The two paths differ only in their magic and in what a torn
// frame means: the end of a crashed segment, or a transport error.
//
// Durability is tunable per log: SyncAlways fsyncs every record before
// the append returns (an acknowledged mutation survives machine
// failure), SyncInterval(d) fsyncs from a background flusher (bounded
// loss on power failure, none on process crash — records are written
// through to the OS on every append), and SyncNone leaves syncing to
// the OS entirely.
//
// Segments rotate at compaction checkpoints: Checkpoint(durable) closes
// the active segment, starts a new one with a checkpoint record, and
// deletes every older segment whose records are all covered by the
// durable snapshot — so replay cost stays bounded by the churn since
// the last checkpoint. Recovery tolerates a torn final record in any
// segment (the expected artifact of a crash mid-write): the tail is
// dropped, not fatal. A torn record was never acknowledged under
// SyncAlways, so no acknowledged mutation is ever lost.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"resinfer/internal/fault"
)

// Op identifies a record's mutation type.
type Op uint8

const (
	// OpUpsert records a vector written under a resolved global ID.
	OpUpsert Op = 1
	// OpDelete records the removal of a live global ID.
	OpDelete Op = 2
	// OpCheckpoint marks that a durable snapshot covering every record
	// with LSN ≤ Durable was written; replay treats it as a no-op.
	OpCheckpoint Op = 3
)

// Record is one decoded WAL entry.
type Record struct {
	// LSN is the record's log sequence number: strictly increasing,
	// dense within a process lifetime.
	LSN uint64
	// Op is the mutation type.
	Op Op
	// Shard is the shard the mutation routed to (diagnostic; replay
	// re-derives routing from the index state).
	Shard int
	// ID is the global row ID (OpUpsert, OpDelete).
	ID int
	// Vec is the caller-space vector (OpUpsert only).
	Vec []float32
	// Durable is the snapshot-covered LSN (OpCheckpoint only).
	Durable uint64
}

// SyncPolicy selects the fsync discipline of a Log. The zero value is
// SyncAlways — durability-first by default.
type SyncPolicy struct {
	mode     syncMode
	interval time.Duration
}

type syncMode uint8

const (
	syncAlways syncMode = iota
	syncNone
	syncInterval
)

// SyncAlways fsyncs every record before the append returns.
func SyncAlways() SyncPolicy { return SyncPolicy{mode: syncAlways} }

// SyncNone never fsyncs explicitly; records are still written through
// to the OS per append, so they survive a process crash but not
// necessarily a machine failure.
func SyncNone() SyncPolicy { return SyncPolicy{mode: syncNone} }

// SyncInterval fsyncs from a background flusher every d (floor 1ms).
func SyncInterval(d time.Duration) SyncPolicy {
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return SyncPolicy{mode: syncInterval, interval: d}
}

// String renders the policy in the form ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.mode {
	case syncNone:
		return "none"
	case syncInterval:
		return fmt.Sprintf("interval=%s", p.interval)
	default:
		return "always"
	}
}

// ParseSyncPolicy parses "always", "none", "interval" (100ms default)
// or "interval=<duration>" — the -wal-sync flag syntax.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "" || s == "always":
		return SyncAlways(), nil
	case s == "none":
		return SyncNone(), nil
	case s == "interval":
		return SyncInterval(100 * time.Millisecond), nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil {
			return SyncPolicy{}, fmt.Errorf("wal: bad sync interval %q: %w", s, err)
		}
		return SyncInterval(d), nil
	default:
		return SyncPolicy{}, fmt.Errorf("wal: unknown sync policy %q (want always | none | interval[=dur])", s)
	}
}

// segMagic starts every segment file; the record frames (frame.go)
// follow it.
const segMagic = "RESWAL01"

// ErrClosed reports an append on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// segment is one on-disk log file; the first LSN is encoded in its name.
type segment struct {
	path  string
	first uint64
}

// Log is an append-only write-ahead log over segment files in one
// directory. All methods are safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	dir    string
	policy SyncPolicy

	f           *os.File // active segment, nil until the first append after Open/rotate
	off         int64    // bytes acknowledged into the active segment (rollback point)
	segs        []segment
	nextLSN     uint64
	dirty       bool  // unsynced bytes pending (interval policy)
	failed      error // first write/sync failure: the log is fail-stop after it
	closed      bool
	appendBuf   []byte
	obs         Observer // optional per-append instrumentation hook
	flusherStop chan struct{}
	flusherWG   sync.WaitGroup
}

// Observer receives per-append instrumentation: the total time spent
// in the append (serialize + write + any inline fsync) and the fsync
// portion alone (0 under SyncNone/SyncInterval, whose syncs happen off
// the append path). It is called with the log's mutex held — keep it
// to a few atomic operations.
type Observer func(appendDur, syncDur time.Duration)

// SetObserver installs (or, with nil, removes) the append observer.
func (l *Log) SetObserver(fn Observer) {
	l.mu.Lock()
	l.obs = fn
	l.mu.Unlock()
}

// Open opens (creating if needed) the log directory. Existing segments
// are scanned so new appends continue the LSN sequence past the last
// valid record; minLSN additionally floors the sequence (pass the LSN a
// loaded snapshot was taken at, so appends stay above it even when the
// directory is fresh). Appends go to a new segment — a possibly-torn
// tail from a previous crash is never appended to.
func Open(dir string, policy SyncPolicy, minLSN uint64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := minLSN + 1
	for len(segs) > 0 {
		tail := segs[len(segs)-1]
		last, _, err := scanSegment(tail.path, 0, nil)
		if err != nil {
			return nil, err
		}
		if last == 0 {
			// A segment with no intact record holds nothing acknowledged
			// (a crash tore it before its first record survived); drop it
			// so its name can be reissued to the next segment.
			if err := os.Remove(tail.path); err != nil {
				return nil, err
			}
			segs = segs[:len(segs)-1]
			continue
		}
		if last+1 > next {
			next = last + 1
		}
		if tail.first > next {
			next = tail.first
		}
		break
	}
	if next < 1 {
		next = 1
	}
	l := &Log{dir: dir, policy: policy, segs: segs, nextLSN: next}
	if policy.mode == syncInterval {
		l.flusherStop = make(chan struct{})
		l.flusherWG.Add(1)
		go l.flusher()
	}
	return l, nil
}

// flusher periodically fsyncs the active segment under the interval
// policy.
func (l *Log) flusher() {
	defer l.flusherWG.Done()
	t := time.NewTicker(l.policy.interval)
	defer t.Stop()
	for {
		select {
		case <-l.flusherStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && l.f != nil {
				_ = l.f.Sync()
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// listSegments returns the directory's segment files sorted by first
// LSN.
func listSegments(dir string) ([]segment, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	segs := make([]segment, 0, len(names))
	for _, p := range names {
		var first uint64
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, "wal-%016x.log", &first); err != nil {
			return nil, fmt.Errorf("wal: unrecognized segment name %q", base)
		}
		segs = append(segs, segment{path: p, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// AppendUpsert logs an upsert of (id, v) routed to shard and returns
// its LSN. The record is durable per the sync policy when this returns.
func (l *Log) AppendUpsert(shard, id int, v []float32) (uint64, error) {
	return l.append(Record{Op: OpUpsert, Shard: shard, ID: id, Vec: v})
}

// AppendDelete logs the delete of id on shard and returns its LSN.
func (l *Log) AppendDelete(shard, id int) (uint64, error) {
	return l.append(Record{Op: OpDelete, Shard: shard, ID: id})
}

// append assigns r the next LSN, writes its frame (one write syscall),
// then syncs per policy.
func (l *Log) append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) (uint64, error) {
	var t0 time.Time
	if l.obs != nil {
		t0 = time.Now()
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		// Fail-stop: a failed write may have left a partial record in the
		// active segment. Appending past it would put acknowledged records
		// behind garbage that recovery treats as the torn tail — silently
		// dropping them. Refuse every later append instead; the owner
		// surfaces the error and mutations fail loudly until restart.
		return 0, fmt.Errorf("wal: log failed earlier: %w", l.failed)
	}
	if fault.Active() {
		// An injected append error models a transient write failure with
		// nothing on disk: retryable, no fail-stop.
		if err := fault.Check(fault.SiteWALAppend); err != nil {
			return 0, err
		}
	}
	if l.f == nil {
		if err := l.openSegmentLocked(); err != nil {
			return 0, err
		}
	}
	r.LSN = l.nextLSN
	l.appendBuf = appendFrame(l.appendBuf[:0], r)
	if _, err := l.f.Write(l.appendBuf); err != nil {
		// A failed write may have left part of the record on disk. Try to
		// truncate the segment back to the last acknowledged boundary: if
		// that succeeds the log is exactly as it was before this append —
		// the error is transient and the caller may retry. Only when the
		// rollback itself fails does the log fail-stop (appending past an
		// unremovable partial record would bury acknowledged records
		// behind what recovery treats as the torn tail).
		if terr := l.rollbackLocked(); terr != nil {
			l.failed = err
			return 0, fmt.Errorf("wal: write failed (%v) and rollback failed: %w", err, terr)
		}
		return 0, err
	}
	l.off += int64(len(l.appendBuf))
	l.nextLSN++
	var syncDur time.Duration
	switch l.policy.mode {
	case syncAlways:
		var s0 time.Time
		if l.obs != nil {
			s0 = time.Now()
		}
		var err error
		if fault.Active() {
			// An injected fsync fault models a sync failure or a slow disk
			// on the durability path; an error here is fail-stop, exactly
			// like a real one.
			err = fault.Check(fault.SiteWALFsync)
		}
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			// The record is written but not durable, and the mutation will
			// be rejected; recovery may still replay it (the caller was
			// told the outcome is unknown). Fail-stop so nothing is
			// acknowledged on top of an unsyncable segment.
			l.failed = err
			return 0, err
		}
		if l.obs != nil {
			syncDur = time.Since(s0)
		}
	case syncInterval:
		l.dirty = true
	}
	if l.obs != nil {
		l.obs(time.Since(t0), syncDur)
	}
	return r.LSN, nil
}

// openSegmentLocked creates the next segment file, named after the
// first LSN it will hold, and writes the segment magic.
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", l.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.off = int64(len(segMagic))
	l.segs = append(l.segs, segment{path: path, first: l.nextLSN})
	return nil
}

// rollbackLocked restores the active segment to the last acknowledged
// record boundary after a failed write: truncate off any partial record
// and reposition the write cursor.
func (l *Log) rollbackLocked() error {
	if err := l.f.Truncate(l.off); err != nil {
		return err
	}
	_, err := l.f.Seek(l.off, io.SeekStart)
	return err
}

// Failed returns the write/sync error the log fail-stopped on, or nil
// while the log is healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Recover clears the fail-stop state after a persistent failure: the
// poisoned active segment is abandoned (closed best-effort; its intact
// prefix still replays — recovery drops only the torn tail) and the next
// append opens a fresh segment. It is the operator's escape hatch behind
// POST /admin/degraded/clear — call it once the underlying disk fault is
// fixed. A no-op on a healthy log.
func (l *Log) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed == nil {
		return nil
	}
	if l.f != nil {
		// The handle may be poisoned (a failed fsync leaves its durability
		// unknowable); closing it can fail and that is fine — the segment
		// is abandoned either way.
		_ = l.f.Close()
		l.f = nil
		l.dirty = false
	}
	// If the abandoned segment never acknowledged a record, its name (the
	// first LSN it would have held) collides with the segment the next
	// append creates; drop it so the name can be reissued.
	if n := len(l.segs); n > 0 && l.segs[n-1].first == l.nextLSN {
		if err := os.Remove(l.segs[n-1].path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		l.segs = l.segs[:n-1]
	}
	l.failed = nil
	return nil
}

// Checkpoint records that a durable snapshot covers every record with
// LSN ≤ durable: the active segment is rotated out, a checkpoint record
// opens the new one, and every older segment made obsolete by the
// snapshot is deleted — bounding future replay to the churn since this
// point.
func (l *Log) Checkpoint(durable uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log failed earlier: %w", l.failed)
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return err
		}
		if err := l.f.Close(); err != nil {
			l.failed = err
			return err
		}
		l.f = nil
		l.dirty = false
	}
	if _, err := l.appendLocked(Record{Op: OpCheckpoint, Durable: durable}); err != nil {
		return err
	}
	// The checkpoint record marks a recovery boundary regardless of the
	// sync policy; one extra fsync per checkpoint is noise.
	if err := l.f.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.dirty = false
	// A non-active segment is obsolete when every record in it has LSN ≤
	// durable; with dense LSNs its last record is the next segment's
	// first minus one.
	kept := l.segs[:0]
	for i, s := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].first-1 <= durable {
			if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	return nil
}

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	l.dirty = false
	return l.f.Sync()
}

// Close syncs and closes the active segment and stops the background
// flusher. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.flusherStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.flusherWG.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_ = l.f.Sync()
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}

// LastLSN returns the LSN of the most recent append (0 if none yet).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// SegmentCount returns how many segment files the log currently spans.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Upserts / Deletes / Checkpoints count the records delivered to the
	// callback (after the LSN filter).
	Upserts, Deletes, Checkpoints int
	// Skipped counts records at or below the replay floor.
	Skipped int
	// Torn counts segments that ended in a truncated or checksum-failing
	// tail (dropped, not fatal).
	Torn int
	// FirstLSN / LastLSN bound the records seen (0 when the log is
	// empty).
	FirstLSN, LastLSN uint64
}

// Replay decodes every segment in order and calls fn for each record
// with LSN > after. A torn final record in a segment is dropped; real
// mid-stream corruption (bad magic, non-monotone LSNs) is an error, as
// is any error returned by fn.
func (l *Log) Replay(after uint64, fn func(Record) error) (ReplayStats, error) {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	var st ReplayStats
	var lastSeen uint64
	for _, s := range segs {
		last, torn, err := scanSegment(s.path, lastSeen, func(r Record) error {
			if st.FirstLSN == 0 {
				st.FirstLSN = r.LSN
			}
			st.LastLSN = r.LSN
			if r.LSN <= after {
				st.Skipped++
				return nil
			}
			switch r.Op {
			case OpUpsert:
				st.Upserts++
			case OpDelete:
				st.Deletes++
			case OpCheckpoint:
				st.Checkpoints++
			}
			if fn != nil {
				return fn(r)
			}
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("wal: replaying %s: %w", filepath.Base(s.path), err)
		}
		if torn {
			st.Torn++
		}
		if last > lastSeen {
			lastSeen = last
		}
	}
	return st, nil
}

// scanSegment decodes one segment file, calling fn per record. It
// returns the last valid LSN seen (floor if none), whether the segment
// ended in a torn tail, and a fatal error for a bad record or a callback
// failure. LSNs must be strictly increasing and above floor.
func scanSegment(path string, floor uint64, fn func(Record) error) (last uint64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		// A crash can tear even the magic of a just-created segment.
		return 0, true, nil
	}
	if string(magic) != segMagic {
		return 0, false, fmt.Errorf("wal: bad segment magic %q", magic)
	}
	fr := frameReader{br: br, last: floor}
	for {
		rec, err := fr.next()
		switch {
		case errors.Is(err, io.EOF):
			return fr.last, false, nil
		case errors.Is(err, errTorn):
			return fr.last, true, nil
		case err != nil:
			return fr.last, false, fmt.Errorf("wal: %w", err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return fr.last, false, err
			}
		}
	}
}
