package wal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"resinfer/internal/raceguard"
)

// TestSegmentBytesAreEncoderFrames runs one fixed script of upserts,
// deletes and a checkpoint under each sync policy. Every segment file must
// be segMagic followed by appendFrame's frames for the records it holds,
// and hash to the pinned sha256, so the on-disk format cannot change
// without this test failing.
func TestSegmentBytesAreEncoderFrames(t *testing.T) {
	golden := map[string]string{
		"wal-0000000000000001.log": "a5cc54536d4662f8e72b40aa058a5ed5dd9d1f56fd73dc6208c788f0fb5e46fd",
		"wal-0000000000000005.log": "c4499d76ff89f0ab43916f7f750f94e4052d89a8d38e432a0430a95ba3a3163e",
	}
	v16 := make([]float32, 16)
	for i := range v16 {
		v16[i] = float32(i)*0.75 - 5
	}
	script := []Record{
		{Op: OpUpsert, Shard: 0, ID: 7, Vec: []float32{1.5, -2.25, 3.125}},
		{Op: OpUpsert, Shard: 2, ID: 8, Vec: []float32{1e-38, 3.4e38, -0.5}},
		{Op: OpDelete, Shard: 2, ID: 7},
		{Op: OpUpsert, Shard: 1, ID: 9},
		// durable=2 leaves records 3–4 live, so the first segment survives.
		{Op: OpCheckpoint, Durable: 2},
		{Op: OpUpsert, Shard: 3, ID: 1 << 40, Vec: v16},
		{Op: OpDelete, Shard: 0, ID: 8},
	}
	for _, p := range []SyncPolicy{SyncAlways(), SyncNone(), SyncInterval(5 * time.Millisecond)} {
		dir := t.TempDir()
		l, err := Open(dir, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		seg := "wal-0000000000000001.log"
		want := map[string][]byte{seg: []byte(segMagic)}
		for i, r := range script {
			r.LSN = uint64(i + 1)
			var lsn uint64
			switch r.Op {
			case OpUpsert:
				lsn, err = l.AppendUpsert(r.Shard, r.ID, r.Vec)
			case OpDelete:
				lsn, err = l.AppendDelete(r.Shard, r.ID)
			case OpCheckpoint:
				err = l.Checkpoint(r.Durable)
				lsn = l.LastLSN()
				seg = fmt.Sprintf("wal-%016x.log", lsn)
				want[seg] = []byte(segMagic)
			}
			if err != nil || lsn != r.LSN {
				t.Fatalf("%s: step %d: lsn %d (%v), want %d", p, i, lsn, err, r.LSN)
			}
			want[seg] = appendFrame(want[seg], r)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(names) != len(want) {
			t.Fatalf("%s: segments %v (%v), want %d", p, names, err, len(want))
		}
		for _, path := range names {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(path)
			if !bytes.Equal(got, want[name]) {
				t.Fatalf("%s: %s is not segMagic + the encoder's frames", p, name)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != golden[name] {
				t.Fatalf("%s: %s sha256 %s, want %s", p, name, sum, golden[name])
			}
		}
	}
}

// TestAppendAllocatesNothing: an append encodes into the log's reused
// buffer, so once that buffer has grown an upsert allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceguard.Enabled {
		t.Skip("race instrumentation allocates")
	}
	l, err := Open(t.TempDir(), SyncNone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	v := make([]float32, 420)
	id := 0
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if _, err := l.AppendUpsert(id%4, id, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendUpsert allocates %v times per call, want 0", allocs)
	}
}

// FuzzFrames reads the same frame bytes two ways: behind segMagic as a
// segment file, through Open and Replay, and behind StreamMagic as a tail
// stream, through StreamReader. Both must yield the same records and end
// the same way: a clean end on disk is io.EOF on the wire; a torn tail,
// dropped and counted in ReplayStats.Torn (or, with no intact record
// before it, the whole segment dropped), is ErrStreamCorrupt; a bad
// record, which fails Open, is ErrStreamCorrupt naming the same record.
// Together they allocate in proportion to the bytes given.
func FuzzFrames(f *testing.F) {
	recs := []Record{
		{LSN: 5, Op: OpUpsert, Shard: 2, ID: 41, Vec: []float32{1.5, -2.25, 8}},
		{LSN: 6, Op: OpDelete, Shard: 0, ID: 41},
		{LSN: 7, Op: OpCheckpoint, Durable: 6},
		{LSN: 9, Op: OpUpsert, Shard: 1, ID: 42},
	}
	var frames []byte
	for _, r := range recs {
		frames = appendFrame(frames, r)
	}
	for _, cut := range []int{len(frames), len(frames) - 1, len(frames) / 2, 3, 0} {
		f.Add(frames[:cut])
	}
	// A header that claims the largest payload the format allows, and
	// nothing behind it.
	f.Add([]byte{0x19, 0x00, 0x00, 0x01, 0, 0, 0, 0})
	// A flipped vector byte (only the CRC catches it), a repeated LSN and
	// an unknown op.
	flipped := slices.Clone(frames)
	flipped[recHeaderLen+payloadFixed] ^= 0x01
	f.Add(flipped)
	f.Add(appendFrame(slices.Clone(frames), recs[len(recs)-1]))
	f.Add(appendFrame(slices.Clone(frames), Record{LSN: 10, Op: 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "wal-0000000000000001.log")
		if err := os.WriteFile(seg, append([]byte(segMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		disk, segTorn, openErr := replayFrames(t, dir, len(data))
		wire, wireErr := readFrames(append([]byte(StreamMagic), data...))
		runtime.ReadMemStats(&after)
		// Three 64 KiB read buffers, each payload at most 64 KiB ahead of
		// the bytes, and two collected copies of what the bytes decode to.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*len(data)); grew > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}

		if !errors.Is(wireErr, io.EOF) && !errors.Is(wireErr, ErrStreamCorrupt) {
			t.Fatalf("stream ended with %v: neither io.EOF nor ErrStreamCorrupt", wireErr)
		}
		if openErr != nil {
			// A bad record: the stream must stop at the same one.
			bad := strings.TrimPrefix(openErr.Error(), "wal: ")
			if !errors.Is(wireErr, ErrStreamCorrupt) || !strings.HasSuffix(wireErr.Error(), bad) {
				t.Fatalf("Open failed with %v; stream ended with %v", openErr, wireErr)
			}
			return
		}
		if wireTorn := errors.Is(wireErr, ErrStreamCorrupt); wireTorn != segTorn {
			t.Fatalf("segment torn = %v; stream ended with %v", segTorn, wireErr)
		}
		if len(disk) != len(wire) {
			t.Fatalf("segment yields %d records, stream %d", len(disk), len(wire))
		}
		for i := range disk {
			if !sameRecord(disk[i], wire[i]) {
				t.Fatalf("record %d: segment %+v, stream %+v", i, disk[i], wire[i])
			}
		}
	})
}

// replayFrames opens the log in dir, whose one segment holds n bytes of
// frames, and replays it. torn reports a torn tail: one Replay counted,
// or a segment Open dropped although frame bytes followed its magic (so
// the first frame was torn).
func replayFrames(t *testing.T, dir string, n int) (recs []Record, torn bool, err error) {
	l, err := Open(dir, SyncNone(), 0)
	if err != nil {
		return nil, false, err
	}
	defer l.Close()
	dropped := l.SegmentCount() == 0
	st, err := l.Replay(0, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay after a clean Open: %v", err)
	}
	return recs, st.Torn == 1 || (dropped && n > 0), nil
}

// readFrames reads a tail stream to its end.
func readFrames(stream []byte) ([]Record, error) {
	sr := NewStreamReader(bytes.NewReader(stream))
	var recs []Record
	for {
		r, err := sr.Next()
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}

// sameRecord compares two records field by field, vectors bit for bit.
func sameRecord(a, b Record) bool {
	if a.LSN != b.LSN || a.Op != b.Op || a.Shard != b.Shard || a.ID != b.ID ||
		a.Durable != b.Durable || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float32bits(a.Vec[i]) != math.Float32bits(b.Vec[i]) {
			return false
		}
	}
	return true
}
