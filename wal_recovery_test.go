package resinfer

// Crash-recovery pin-downs for the write-ahead log: an index recovered
// from its WAL must be bit-identical to one that never crashed — same
// IDs, same distances, same order, and for a rebuilt base the same graph
// bytes, whatever the index kind — including when the final record is
// torn (dropped, not fatal), when recovery starts from a compaction
// checkpoint snapshot, and when it starts from a user-saved snapshot
// with only the log tail replayed.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"resinfer/internal/persist"
)

// assertIdentical requires two searches to agree exactly — IDs and
// distances in the same order (recovered state must be bit-identical,
// so even tie order matches).
func assertIdentical(t testing.TB, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d: %+v, want %+v\n got: %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
}

// mutatePair applies one scripted mutation step to both indexes and the
// model, asserting the WAL-backed index acknowledges it identically.
type mutatePair struct {
	t     *testing.T
	a, b  *MutableIndex
	model liveModel
	rng   *rand.Rand
	ups   int
	dels  int
}

func (p *mutatePair) add() {
	v := randRows(p.rng, 1, mutDim)[0]
	ida, err := p.a.Add(v)
	if err != nil {
		p.t.Fatal(err)
	}
	idb, err := p.b.Add(v)
	if err != nil {
		p.t.Fatal(err)
	}
	if ida != idb {
		p.t.Fatalf("diverging auto IDs: %d vs %d", ida, idb)
	}
	p.model[ida] = v
	p.ups++
}

func (p *mutatePair) upsert(id int) {
	v := randRows(p.rng, 1, mutDim)[0]
	if _, err := p.a.Upsert(id, v); err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.b.Upsert(id, v); err != nil {
		p.t.Fatal(err)
	}
	p.model[id] = v
	p.ups++
}

func (p *mutatePair) del(id int) {
	oka, err := p.a.Delete(id)
	if err != nil {
		p.t.Fatal(err)
	}
	okb, err := p.b.Delete(id)
	if err != nil {
		p.t.Fatal(err)
	}
	if oka != okb {
		p.t.Fatalf("diverging delete(%d): %v vs %v", id, oka, okb)
	}
	if oka {
		delete(p.model, id)
		p.dels++
	}
}

// script runs a deterministic mixed mutation stream.
func (p *mutatePair) script(steps int) {
	for i := 0; i < steps; i++ {
		switch i % 5 {
		case 0, 1:
			p.add()
		case 2:
			p.upsert(p.rng.Intn(100)) // replace / resurrect a low ID
		case 3:
			p.del(p.rng.Intn(150))
		case 4:
			p.upsert(200 + p.rng.Intn(200)) // mix of fresh explicit IDs
		}
	}
}

func compareAll(t *testing.T, rng *rand.Rand, rec, control *MutableIndex, model liveModel) {
	t.Helper()
	if rec.Len() != control.Len() {
		t.Fatalf("Len %d, control %d", rec.Len(), control.Len())
	}
	for _, q := range randRows(rng, 20, mutDim) {
		got, err := rec.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.Search(q, 10, Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, got, want)
		assertExact(t, got, model.exactTopK(q, 10, L2))
	}
}

// TestWALCrashRecoveryGolden is the acceptance pin-down: under
// SyncAlways every acknowledged mutation survives a crash (the index is
// dropped without Save or Close), and the recovered index is
// bit-identical to a control that never crashed.
func TestWALCrashRecoveryGolden(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(77))
	data := randRows(rng, 200, mutDim)
	wopts := &MutableOptions{DisableAutoCompact: true, WALDir: dir, WALSync: WALSyncAlways()}
	copts := &MutableOptions{DisableAutoCompact: true}

	mx, err := NewMutable(data, Flat, 3, wopts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewMutable(data, Flat, 3, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	p := &mutatePair{t: t, a: mx, b: control, model: model, rng: rng}
	p.script(120)

	// Crash: abandon mx without Save or Close, rebuild from the same
	// deterministic data, and let the WAL replay bring it back.
	rec, err := NewMutable(data, Flat, 3, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	wr := rec.WALRecovery()
	if !wr.Enabled {
		t.Fatal("recovery reports WAL disabled")
	}
	if wr.Upserts != p.ups || wr.Deletes != p.dels {
		t.Fatalf("replayed %d upserts / %d deletes, want %d / %d",
			wr.Upserts, wr.Deletes, p.ups, p.dels)
	}
	compareAll(t, rng, rec, control, model)

	// The recovered index keeps logging: one more mutation round-trips
	// through a second crash.
	id, err := rec.Add(randRows(rng, 1, mutDim)[0])
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := NewMutable(data, Flat, 3, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if rec2.Len() != control.Len()+1 {
		t.Fatalf("second recovery lost the post-recovery insert (len %d, want %d)",
			rec2.Len(), control.Len()+1)
	}
	if ok, _ := rec2.Delete(id); !ok {
		t.Fatalf("post-recovery id %d not live after second recovery", id)
	}
}

// TestWALCrashRecoveryGoldenHNSW is the HNSW twin: a checkpoint-less
// recovery rebuilds every shard's graph from the same rows, and the rebuilt
// shards must be the crashed index's byte for byte — two builds agree
// however their goroutines were scheduled.
func TestWALCrashRecoveryGoldenHNSW(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(78))
	data := randRows(rng, 1000, mutDim)
	index := &Options{Seed: 3, HNSWEfConstruction: 60}
	wopts := &MutableOptions{Index: index, DisableAutoCompact: true, WALDir: dir, WALSync: WALSyncNone()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	build := func(o *MutableOptions) *MutableIndex {
		mx, err := NewMutable(data, HNSW, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := mx.Enable(DDCRes, nil); err != nil {
			t.Fatal(err)
		}
		return mx
	}
	encoded := func(mx *MutableIndex) []byte {
		var buf bytes.Buffer
		pw := persist.NewWriter(&buf)
		if err := mx.encodeSharded(pw); err != nil {
			t.Fatal(err)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mx := build(wopts)
	control := build(&MutableOptions{Index: index, DisableAutoCompact: true})
	defer control.Close()
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	p := &mutatePair{t: t, a: mx, b: control, model: model, rng: rng}
	p.script(120)

	// Crash: abandon mx without Save or Close; the rebuild replays the WAL.
	rec := build(wopts)
	defer rec.Close()
	if wr := rec.WALRecovery(); wr.Upserts != p.ups || wr.Deletes != p.dels {
		t.Fatalf("replayed %d upserts / %d deletes, want %d / %d", wr.Upserts, wr.Deletes, p.ups, p.dels)
	}
	if got, want := encoded(rec), encoded(mx); !bytes.Equal(got, want) {
		t.Fatalf("recovered shards encode to %d bytes that differ from the crashed index's %d", len(got), len(want))
	}
	for _, q := range randRows(rng, 20, mutDim) {
		for _, mode := range []Mode{Exact, DDCRes} {
			got, err := rec.Search(q, 10, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := control.Search(q, 10, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, got, want)
		}
	}
}

// TestWALTornFinalRecord tears the last record mid-write (a crash
// artifact): recovery must drop it — losing exactly the unacknowledged
// tail mutation — and succeed.
func TestWALTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	data := randRows(rng, 150, mutDim)
	wopts := &MutableOptions{DisableAutoCompact: true, WALDir: dir, WALSync: WALSyncNone()}

	mx, err := NewMutable(data, Flat, 2, wopts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewMutable(data, Flat, 2, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	p := &mutatePair{t: t, a: mx, b: control, model: model, rng: rng}
	p.script(40)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	sort.Strings(segs)
	before, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The final mutation goes to mx only — and is then torn in half, so
	// it must NOT survive; control never sees it.
	if _, err := mx.Add(randRows(rng, 1, mutDim)[0]); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], before.Size()+(after.Size()-before.Size())/2); err != nil {
		t.Fatal(err)
	}

	rec, err := NewMutable(data, Flat, 2, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	wr := rec.WALRecovery()
	if wr.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", wr.TornSegments)
	}
	if wr.Upserts != p.ups || wr.Deletes != p.dels {
		t.Fatalf("replayed %d/%d, want %d/%d (torn record must not count)",
			wr.Upserts, wr.Deletes, p.ups, p.dels)
	}
	compareAll(t, rng, rec, control, model)
}

// TestWALCheckpointRecovery exercises the compaction checkpoint: after
// Compact, the WAL directory holds a snapshot and a trimmed log, a
// rebuild over it is refused, and RecoverMutable restores snapshot +
// tail exactly.
func TestWALCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	data := randRows(rng, 180, mutDim)
	wopts := &MutableOptions{DisableAutoCompact: true, WALDir: dir, WALSync: WALSyncNone()}

	mx, err := NewMutable(data, Flat, 3, wopts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewMutable(data, Flat, 3, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	p := &mutatePair{t: t, a: mx, b: control, model: model, rng: rng}
	p.script(80)

	// Compact both: mx checkpoints its state into the WAL dir and trims
	// the log; control just folds segments (results stay equal).
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := control.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walCheckpointFile)); err != nil {
		t.Fatalf("checkpoint snapshot missing after Compact: %v", err)
	}
	st := mx.MutationStats()
	if st.WALCheckpoints == 0 || st.WALCheckpointErrors != 0 {
		t.Fatalf("checkpoint counters: %+v", st)
	}

	// Tail churn after the checkpoint — only this much should replay.
	preUps, preDels := p.ups, p.dels
	p.script(25)
	tailUps, tailDels := p.ups-preUps, p.dels-preDels

	// Rebuilding over a directory with durable state is refused.
	if _, err := NewMutable(data, Flat, 3, wopts); err == nil {
		t.Fatal("NewMutable over a checkpointed WAL dir must refuse")
	}

	rec, found, err := RecoverMutable(wopts)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("RecoverMutable did not find the checkpoint")
	}
	defer rec.Close()
	wr := rec.WALRecovery()
	if wr.Snapshot == "" {
		t.Fatal("recovery did not report its snapshot source")
	}
	if wr.Upserts != tailUps || wr.Deletes != tailDels {
		t.Fatalf("replayed %d upserts / %d deletes, want tail-only %d / %d",
			wr.Upserts, wr.Deletes, tailUps, tailDels)
	}
	compareAll(t, rng, rec, control, model)

	// Trimming bounds the directory: everything before the last
	// checkpoint is gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) > 3 {
		t.Fatalf("log not trimmed: %d segments remain (%v)", len(segs), segs)
	}
}

// TestWALReplayOntoSavedSnapshot pins the LoadMutable path: records
// newer than a user-written snapshot's applied-LSN header replay onto
// the loaded index; older ones are skipped.
func TestWALReplayOntoSavedSnapshot(t *testing.T) {
	walDir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "snapshot.strm")
	rng := rand.New(rand.NewSource(21))
	data := randRows(rng, 160, mutDim)
	wopts := &MutableOptions{DisableAutoCompact: true, WALDir: walDir, WALSync: WALSyncNone()}

	mx, err := NewMutable(data, Flat, 2, wopts)
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewMutable(data, Flat, 2, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	model := liveModel{}
	for i, v := range data {
		model[i] = v
	}
	p := &mutatePair{t: t, a: mx, b: control, model: model, rng: rng}
	p.script(50)
	if err := mx.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	preUps, preDels := p.ups, p.dels
	p.script(30)

	rec, err := LoadMutableFile(snap, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	wr := rec.WALRecovery()
	if wr.Upserts != p.ups-preUps || wr.Deletes != p.dels-preDels {
		t.Fatalf("replayed %d/%d, want tail-only %d/%d",
			wr.Upserts, wr.Deletes, p.ups-preUps, p.dels-preDels)
	}
	compareAll(t, rng, rec, control, model)
}

// TestMutationValidation pins the scanRow boundary checks: non-finite
// components and wrong dimensionality are ErrInvalidVector.
func TestMutationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randRows(rng, 60, mutDim)
	mx, err := NewMutable(data, Flat, 2, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	bad := make([]float32, mutDim)
	nan := float32(0)
	nan /= nan // NaN without importing math
	bad[3] = nan
	if _, err := mx.Add(bad); !errors.Is(err, ErrInvalidVector) {
		t.Fatalf("Add(NaN) = %v, want ErrInvalidVector", err)
	}
	zero := float32(0)
	bad[3] = 1 / zero // +Inf
	if _, err := mx.Upsert(5, bad); !errors.Is(err, ErrInvalidVector) {
		t.Fatalf("Upsert(+Inf) = %v, want ErrInvalidVector", err)
	}
	if _, err := mx.Add(make([]float32, mutDim+1)); !errors.Is(err, ErrInvalidVector) {
		t.Fatalf("Add(wrong dim) = %v, want ErrInvalidVector", err)
	}
	if mx.Len() != len(data) {
		t.Fatalf("invalid vectors mutated the index: len %d", mx.Len())
	}
}
