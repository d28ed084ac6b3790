package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// collect replays the whole log into a slice.
func collect(t *testing.T, l *Log, after uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	st, err := l.Replay(after, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, st
}

func TestCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := []float32{1.5, -2.25, 3.125}
	if lsn, err := l.AppendUpsert(2, 7, v1); err != nil || lsn != 1 {
		t.Fatalf("upsert: lsn=%d err=%v", lsn, err)
	}
	if lsn, err := l.AppendDelete(0, 7); err != nil || lsn != 2 {
		t.Fatalf("delete: lsn=%d err=%v", lsn, err)
	}
	// durable=1 does not cover record 2, so the first segment survives
	// the rotation and the full stream round-trips.
	if err := l.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.AppendUpsert(1, 9, nil); err != nil || lsn != 4 {
		t.Fatalf("post-checkpoint upsert: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, st := collect(t, l2, 0)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4: %+v", len(recs), recs)
	}
	if recs[0].Op != OpUpsert || recs[0].ID != 7 || recs[0].Shard != 2 || recs[0].LSN != 1 {
		t.Fatalf("rec0: %+v", recs[0])
	}
	for i, want := range v1 {
		if recs[0].Vec[i] != want {
			t.Fatalf("rec0 vec[%d] = %v, want %v", i, recs[0].Vec[i], want)
		}
	}
	if recs[1].Op != OpDelete || recs[1].ID != 7 {
		t.Fatalf("rec1: %+v", recs[1])
	}
	if recs[2].Op != OpCheckpoint || recs[2].Durable != 1 {
		t.Fatalf("rec2: %+v", recs[2])
	}
	if recs[3].Op != OpUpsert || len(recs[3].Vec) != 0 {
		t.Fatalf("rec3: %+v", recs[3])
	}
	if st.Upserts != 2 || st.Deletes != 1 || st.Checkpoints != 1 || st.Torn != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FirstLSN != 1 || st.LastLSN != 4 {
		t.Fatalf("lsn bounds: %+v", st)
	}
	// Replay floor skips covered records.
	recs, st = collect(t, l2, 2)
	if len(recs) != 2 || st.Skipped != 2 {
		t.Fatalf("filtered replay: %d records, skipped %d", len(recs), st.Skipped)
	}
}

func TestOpenContinuesLSNAndMinFloor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendUpsert(0, i, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after reopen = %d, want 5", got)
	}
	if lsn, _ := l2.AppendDelete(0, 3); lsn != 6 {
		t.Fatalf("continued lsn = %d, want 6", lsn)
	}
	l2.Close()

	// A fresh directory with a snapshot floor starts above it.
	l3, err := Open(t.TempDir(), SyncNone(), 500)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if lsn, _ := l3.AppendDelete(0, 1); lsn != 501 {
		t.Fatalf("floored lsn = %d, want 501", lsn)
	}
}

// tornTail simulates a crash mid-write by truncating the newest segment.
func tornTail(t *testing.T, dir string, cut int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	path := segs[len(segs)-1]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

func TestTornFinalRecordDropped(t *testing.T) {
	for _, cut := range []int64{1, 5, 20} {
		dir := t.TempDir()
		l, err := Open(dir, SyncNone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := l.AppendUpsert(0, i, []float32{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		tornTail(t, dir, cut) // tear into the final record

		l2, err := Open(dir, SyncNone(), 0)
		if err != nil {
			t.Fatalf("cut %d: open after tear: %v", cut, err)
		}
		recs, st := collect(t, l2, 0)
		if len(recs) != 2 {
			t.Fatalf("cut %d: %d records survive, want 2", cut, len(recs))
		}
		if st.Torn != 1 {
			t.Fatalf("cut %d: torn=%d, want 1", cut, st.Torn)
		}
		// The reissued LSN reuses the torn (never-acknowledged) slot.
		if lsn, _ := l2.AppendDelete(0, 0); lsn != 3 {
			t.Fatalf("cut %d: next lsn %d, want 3", cut, lsn)
		}
		l2.Close()
	}
}

func TestCorruptPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendUpsert(0, 1, []float32{1})
	l.AppendUpsert(0, 2, []float32{2})
	l.Close()
	// Flip a byte in the last record's payload: the CRC catches it.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, st := collect(t, l2, 0)
	if len(recs) != 1 || recs[0].ID != 1 || st.Torn != 1 {
		t.Fatalf("corrupt tail not dropped: %d recs, torn=%d", len(recs), st.Torn)
	}
}

func TestCheckpointRotatesAndTrims(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.AppendUpsert(0, i, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments before checkpoint: %d", n)
	}
	// Snapshot covers everything appended so far: the old segment is
	// obsolete and the new one holds only the checkpoint record.
	if err := l.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments after covering checkpoint: %d, want 1", n)
	}
	recs, _ := collect(t, l, 0)
	if len(recs) != 1 || recs[0].Op != OpCheckpoint || recs[0].Durable != 10 {
		t.Fatalf("post-trim contents: %+v", recs)
	}

	// A checkpoint that does NOT cover the tail keeps the segment. The
	// four upserts land at LSNs 12–15; durable=12 leaves 13–15 live.
	for i := 10; i < 14; i++ {
		l.AppendUpsert(0, i, nil)
	}
	if err := l.Checkpoint(12); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 2 {
		t.Fatalf("segments after partial checkpoint: %d, want 2", n)
	}
	recs, st := collect(t, l, 12)
	if st.Upserts != 3 || st.Checkpoints != 1 {
		t.Fatalf("records above durable: %+v (recs %+v)", st, recs)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), SyncAlways(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.AppendDelete(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	// All three policies produce identical on-disk record streams.
	for _, p := range []SyncPolicy{SyncAlways(), SyncNone(), SyncInterval(5 * time.Millisecond)} {
		dir := t.TempDir()
		l, err := Open(dir, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := l.AppendUpsert(i%3, i, []float32{float32(i), -float32(i)}); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
		}
		// Do NOT close: simulate abandoning the process. Records were
		// written through per append, so a reopen still sees them all.
		l2, err := Open(dir, SyncNone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := collect(t, l2, 0)
		if len(recs) != 20 {
			t.Fatalf("%s: %d records survive abandonment, want 20", p, len(recs))
		}
		l2.Close()
		l.Close()
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]string{
		"":              "always",
		"always":        "always",
		"none":          "none",
		"interval":      "interval=100ms",
		"interval=50ms": "interval=50ms",
	}
	for in, want := range cases {
		p, err := ParseSyncPolicy(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if p.String() != want {
			t.Fatalf("%q → %q, want %q", in, p.String(), want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := ParseSyncPolicy("interval=xyz"); err == nil {
		t.Fatal("bad interval accepted")
	}
}

func TestZeroValuePolicyIsAlways(t *testing.T) {
	var p SyncPolicy
	if p.String() != "always" {
		t.Fatalf("zero policy = %q, want always", p.String())
	}
}
