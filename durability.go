package resinfer

// Crash durability for streaming ingestion. With MutableOptions.WALDir
// set, a MutableIndex appends every Add/Upsert/Delete to a write-ahead
// log (internal/wal) before applying it, and each completed compaction
// writes a checkpoint snapshot ("checkpoint.strm" in the WAL directory)
// then rotates the log and deletes the segments the snapshot covers —
// so replay cost stays bounded by the churn since the last compaction.
// After an unclean shutdown, RecoverMutable restores the exact
// acknowledged state: latest checkpoint snapshot + WAL tail.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resinfer/internal/wal"
)

// WALSync selects the write-ahead log's fsync policy. The zero value is
// WALSyncAlways.
type WALSync = wal.SyncPolicy

// WALSyncAlways fsyncs every record before the mutation returns: an
// acknowledged mutation survives machine failure.
func WALSyncAlways() WALSync { return wal.SyncAlways() }

// WALSyncNone never fsyncs explicitly. Records are still written
// through to the OS per mutation, so they survive a process crash but
// not necessarily a power failure.
func WALSyncNone() WALSync { return wal.SyncNone() }

// WALSyncInterval fsyncs from a background flusher every d: at most d
// of acknowledged mutations are exposed to machine failure.
func WALSyncInterval(d time.Duration) WALSync { return wal.SyncInterval(d) }

// ParseWALSync parses "always", "none", "interval" or
// "interval=<duration>" — the annserve -wal-sync flag syntax.
func ParseWALSync(s string) (WALSync, error) { return wal.ParseSyncPolicy(s) }

// WALRecovery reports what a WAL-enabled constructor replayed while
// bringing the index back to its pre-crash state.
type WALRecovery struct {
	// Enabled reports whether a WAL is attached at all.
	Enabled bool `json:"enabled"`
	// Snapshot is the checkpoint file recovery started from ("" when
	// the index was built or loaded from caller-provided state).
	Snapshot string `json:"snapshot,omitempty"`
	// Upserts and Deletes count the replayed mutation records.
	Upserts int `json:"upserts"`
	Deletes int `json:"deletes"`
	// TornSegments counts log segments that ended in a truncated final
	// record (dropped — the expected artifact of a crash mid-write).
	TornSegments int `json:"torn_segments,omitempty"`
	// LastLSN is the log position the index is recovered to.
	LastLSN uint64 `json:"last_lsn"`
}

// walCheckpointFile is the checkpoint snapshot's name inside a WAL
// directory; writes go through a temp file + rename so a crash never
// leaves a half-written checkpoint under this name.
const walCheckpointFile = "checkpoint.strm"

func walCheckpointPath(dir string) string { return filepath.Join(dir, walCheckpointFile) }

// RecoverMutable restores the durable state of opts.WALDir: the latest
// checkpoint snapshot plus every WAL record logged after it. found is
// false (with no error) when the directory holds no checkpoint — the
// caller then builds its index and lets NewMutable replay any
// checkpoint-less WAL records.
func RecoverMutable(opts *MutableOptions) (mx *MutableIndex, found bool, err error) {
	o := opts.withDefaults()
	if o.WALDir == "" {
		return nil, false, errors.New("resinfer: RecoverMutable needs MutableOptions.WALDir")
	}
	ckpt := walCheckpointPath(o.WALDir)
	if _, err := os.Stat(ckpt); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	mx, err = LoadMutableFile(ckpt, opts)
	if err != nil {
		return nil, false, fmt.Errorf("resinfer: recovering %s: %w", ckpt, err)
	}
	mx.walRec.Snapshot = ckpt
	return mx, true, nil
}

// attachWAL opens the log in o.WALDir, replays every record with
// LSN > after onto sx — which must be mutation-enabled and not yet
// serving — and attaches the log so subsequent mutations append to it.
// Replay re-executes the recorded mutations through the exact ingest
// path onto a base that rebuilds byte for byte, so a recovered index of
// any kind is bit-identical to one that never crashed.
func attachWAL(sx *ShardedIndex, o MutableOptions, after uint64) (WALRecovery, error) {
	lg, err := wal.Open(o.WALDir, o.WALSync, after)
	if err != nil {
		return WALRecovery{}, err
	}
	st, err := lg.Replay(after, func(r wal.Record) error {
		switch r.Op {
		case wal.OpUpsert:
			_, err := sx.mutUpsert(r.ID, r.Vec)
			return err
		case wal.OpDelete:
			_, err := sx.mutDelete(r.ID)
			return err
		}
		return nil // checkpoint markers replay as no-ops
	})
	if err != nil {
		lg.Close()
		return WALRecovery{}, err
	}
	if st.FirstLSN > after+1 {
		// The log starts past the state we are replaying onto: records
		// in (after, FirstLSN) were trimmed against a newer snapshot
		// than the one loaded. Refuse rather than silently lose them.
		lg.Close()
		return WALRecovery{}, fmt.Errorf(
			"resinfer: wal %s starts at lsn %d but the loaded state ends at %d; recover from the directory's checkpoint instead",
			o.WALDir, st.FirstLSN, after)
	}
	m := sx.mut
	m.mu.Lock()
	last := st.LastLSN
	if last < after {
		last = after
	}
	m.appliedLSN.Store(last)
	m.wal = lg
	m.mu.Unlock()
	return WALRecovery{
		Enabled:      true,
		Upserts:      st.Upserts,
		Deletes:      st.Deletes,
		TornSegments: st.Torn,
		LastLSN:      last,
	}, nil
}

// walCheckpoint makes the index's current state the log's durability
// point: the full mutable snapshot is written to a temp file, fsynced
// and renamed over checkpoint.strm, then the log rotates and drops
// every segment the snapshot covers. Called once per compaction pass
// (maybeWALCheckpoint).
func (mx *MutableIndex) walCheckpoint() error {
	dir := mx.cfg.WALDir
	tmp, err := os.CreateTemp(dir, walCheckpointFile+".tmp-*")
	if err != nil {
		return err
	}
	lsn, err := mx.save(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), walCheckpointPath(dir)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Make the rename itself durable (best effort; not all platforms
	// support directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	mx.walCkpts.Add(1)
	return mx.mut.wal.Checkpoint(lsn)
}

// WALRecovery reports what was replayed when this index was
// constructed (all zero when no WAL is attached).
func (mx *MutableIndex) WALRecovery() WALRecovery { return mx.walRec }
