package wal

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// pipeRecords encodes recs onto a stream and decodes them back.
func pipeRecords(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, r := range recs {
		if err := sw.Write(r); err != nil {
			t.Fatalf("stream write: %v", err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatalf("stream flush: %v", err)
	}
	sr := NewStreamReader(&buf)
	var out []Record
	for {
		r, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		out = append(out, r)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	in := []Record{
		{LSN: 5, Op: OpUpsert, Shard: 2, ID: 41, Vec: []float32{1.5, -2.25}},
		{LSN: 6, Op: OpDelete, Shard: 0, ID: 41},
		{LSN: 7, Op: OpCheckpoint, Durable: 6},
		{LSN: 8, Op: OpUpsert, Shard: 1, ID: 42, Vec: nil},
	}
	out := pipeRecords(t, in)
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].LSN != in[i].LSN || out[i].Op != in[i].Op || out[i].Shard != in[i].Shard ||
			out[i].ID != in[i].ID || out[i].Durable != in[i].Durable || len(out[i].Vec) != len(in[i].Vec) {
			t.Fatalf("rec %d: got %+v, want %+v", i, out[i], in[i])
		}
		for j := range in[i].Vec {
			if out[i].Vec[j] != in[i].Vec[j] {
				t.Fatalf("rec %d vec[%d] = %v, want %v", i, j, out[i].Vec[j], in[i].Vec[j])
			}
		}
	}
}

func TestStreamTornMidRecordIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Write(Record{LSN: 1, Op: OpUpsert, ID: 1, Vec: []float32{1, 2, 3}})
	sw.Write(Record{LSN: 2, Op: OpUpsert, ID: 2, Vec: []float32{4, 5, 6}})
	sw.Flush()
	torn := buf.Bytes()[:buf.Len()-3] // tear into the final record
	sr := NewStreamReader(bytes.NewReader(torn))
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first record should survive: %v", err)
	}
	if _, err := sr.Next(); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("torn stream: err = %v, want ErrStreamCorrupt", err)
	}
}

func TestStreamChecksumMismatchIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Write(Record{LSN: 1, Op: OpUpsert, ID: 1, Vec: []float32{1}})
	sw.Flush()
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff
	sr := NewStreamReader(bytes.NewReader(raw))
	if _, err := sr.Next(); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("bit-flipped stream: err = %v, want ErrStreamCorrupt", err)
	}
}

func TestStreamBadMagicIsCorrupt(t *testing.T) {
	sr := NewStreamReader(bytes.NewReader([]byte("NOTAWAL1xxxx")))
	if _, err := sr.Next(); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrStreamCorrupt", err)
	}
}

func TestStreamNonMonotoneLSNIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Write(Record{LSN: 5, Op: OpDelete, ID: 1})
	sw.Write(Record{LSN: 5, Op: OpDelete, ID: 2}) // duplicate LSN
	sw.Flush()
	sr := NewStreamReader(&buf)
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("non-monotone stream: err = %v, want ErrStreamCorrupt", err)
	}
}

func TestStreamEmptyIsCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Flush()
	sr := NewStreamReader(&buf)
	if _, err := sr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestReplayFromMidSegmentCursor is the catch-up entry point: a
// follower's cursor lands in the middle of a segment and replay must
// deliver exactly the records past it.
func TestReplayFromMidSegmentCursor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.AppendUpsert(0, i, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	// All ten records live in one segment; resume from LSN 6.
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	recs, st := collect(t, l, 6)
	if len(recs) != 4 || st.Skipped != 6 {
		t.Fatalf("cursor resume: %d records (skipped %d), want 4 (skipped 6)", len(recs), st.Skipped)
	}
	for i, r := range recs {
		if want := uint64(7 + i); r.LSN != want {
			t.Fatalf("resumed rec %d has lsn %d, want %d", i, r.LSN, want)
		}
	}
}

// TestReplayCursorAtTornResumeBoundary tears the final record — exactly
// the record past the resume cursor — and replays from the cursor: the
// torn tail is dropped, nothing is delivered, and the stats say so.
func TestReplayCursorAtTornResumeBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.AppendUpsert(0, i, []float32{float32(i), 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	tornTail(t, dir, 7) // tear into record 5

	l2, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Cursor at 4: the only newer record is the torn one.
	recs, st := collect(t, l2, 4)
	if len(recs) != 0 {
		t.Fatalf("torn resume boundary delivered %d records, want 0: %+v", len(recs), recs)
	}
	if st.Torn != 1 || st.LastLSN != 4 {
		t.Fatalf("stats = %+v, want torn=1 lastLSN=4", st)
	}
	// The reopened log reissues the torn LSN; a follower that resumes
	// after the reissued append sees the new record 5, not the torn one.
	if lsn, err := l2.AppendDelete(0, 1); err != nil || lsn != 5 {
		t.Fatalf("reissued lsn = %d (%v), want 5", lsn, err)
	}
	recs, _ = collect(t, l2, 4)
	if len(recs) != 1 || recs[0].Op != OpDelete {
		t.Fatalf("resume after reissue: %+v, want the one reissued delete", recs)
	}
}

// TestReplayLSNCollisionRejoin models a rejoin where the crashed
// process's final segment was created but never acknowledged a record:
// its name (the first LSN it would have held) collides with the segment
// the restarted process opens. Replay from the follower's cursor must
// deliver the surviving records once, in order, with no duplicate LSNs.
func TestReplayLSNCollisionRejoin(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.AppendUpsert(0, i, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate so a fresh segment named wal-…04 starts, then tear it back
	// to its magic: a crash right after segment creation.
	if err := l.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Checkpoint opened a segment holding only the checkpoint record
	// (LSN 4); tear that record off so the segment is empty — the name
	// wal-…04 now collides with the next append's LSN.
	tornTail(t, dir, 1)

	// Reopen with the snapshot floor, exactly as RecoverMutable does: the
	// fully-torn wal-…04 segment is dropped so its name can be reissued,
	// and the next append takes the collided LSN.
	l2, err := Open(dir, SyncNone(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 3 {
		t.Fatalf("LastLSN after collision rejoin = %d, want 3 (torn slot reissued)", got)
	}
	if lsn, err := l2.AppendUpsert(0, 9, []float32{9}); err != nil || lsn != 4 {
		t.Fatalf("reissued append: lsn=%d err=%v, want 4", lsn, err)
	}
	recs, _ := collect(t, l2, 0)
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate lsn %d after collision rejoin", r.LSN)
		}
		seen[r.LSN] = true
	}
	if len(recs) != 1 || recs[0].LSN != 4 || recs[0].ID != 9 {
		t.Fatalf("collision rejoin replay: %+v", recs)
	}
	// A follower cursor past the snapshot (3) sees only the reissued
	// record.
	recs, _ = collect(t, l2, 3)
	if len(recs) != 1 || recs[0].ID != 9 {
		t.Fatalf("cursor past snapshot: %+v, want the reissued upsert only", recs)
	}
}

// FuzzStreamReader feeds arbitrary bytes to the decoder a follower points at
// a peer's /internal/replica/wal response. Whatever arrives, Next returns —
// a record, io.EOF or ErrStreamCorrupt, never a panic — records come out in
// strictly increasing LSN order, and the reader allocates in proportion to
// the bytes it was given, not to what a record header claims.
func FuzzStreamReader(f *testing.F) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, r := range []Record{
		{LSN: 5, Op: OpUpsert, Shard: 2, ID: 41, Vec: []float32{1.5, -2.25, 8}},
		{LSN: 6, Op: OpDelete, Shard: 0, ID: 41},
		{LSN: 7, Op: OpCheckpoint, Durable: 6},
		{LSN: 9, Op: OpUpsert, Shard: 1, ID: 42},
	} {
		if err := sw.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		f.Fatal(err)
	}
	stream := buf.Bytes()
	f.Add(stream)
	for _, cut := range []int{len(stream) - 1, len(stream) / 2, len(StreamMagic) + 3, len(StreamMagic), 3, 0} {
		f.Add(stream[:cut])
	}
	// A header that claims the largest payload the format allows, and
	// nothing behind it.
	f.Add(append([]byte(StreamMagic), 0x19, 0x00, 0x00, 0x01, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr := NewStreamReader(bytes.NewReader(data))
		var last uint64
		for n := 0; ; n++ {
			rec, err := sr.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrStreamCorrupt) {
					t.Fatalf("Next returned %v: neither io.EOF nor ErrStreamCorrupt", err)
				}
				break
			}
			if rec.LSN <= last {
				t.Fatalf("record %d: lsn %d after %d", n, rec.LSN, last)
			}
			last = rec.LSN
			if n > len(data) {
				t.Fatalf("%d records out of %d bytes", n, len(data))
			}
		}
		runtime.ReadMemStats(&after)
		// 64 KiB of read buffer, at most 64 KiB of payload ahead of the bytes.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+8*len(data)); grew > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
	})
}
