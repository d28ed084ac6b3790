package resinfer

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"resinfer/internal/dataset"
	"resinfer/internal/fault"
	"resinfer/internal/store"
)

// rotating lists the modes whose comparators are built around a rotation a
// ShardedIndex trains once.
var rotating = []Mode{DDCRes, DDCPCA, ADSampling}

// rotationMatrix returns the matrix shard s rotates mode's queries through.
func rotationMatrix(t testing.TB, sx *ShardedIndex, s int, mode Mode) *store.Matrix {
	t.Helper()
	rot := sx.shards[s].rotationOf(mode)
	if rot == nil {
		t.Fatalf("shard %d has no rotation for %s", s, mode)
	}
	return rot.Rotation
}

// sharedRotations asserts that all shards rotate each mode's queries
// through one matrix and returns it per mode.
func sharedRotations(t testing.TB, sx *ShardedIndex) map[Mode]*store.Matrix {
	t.Helper()
	out := make(map[Mode]*store.Matrix, len(rotating))
	for _, m := range rotating {
		out[m] = rotationMatrix(t, sx, 0, m)
		for s := 1; s < sx.NumShards(); s++ {
			if got := rotationMatrix(t, sx, s, m); got != out[m] {
				t.Errorf("%s: shard %d rotates through %p, shard 0 through %p", m, s, got, out[m])
			}
		}
	}
	return out
}

func enableRotating(t testing.TB, sx *ShardedIndex, train [][]float32) {
	t.Helper()
	for _, m := range rotating {
		if err := sx.EnableWithTraining(m, train, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardsShareOneRotation: Enable trains one rotation per mode for the
// whole index, a saved and loaded index has one again, and a compacted
// shard keeps the very matrix the base it replaces used.
func TestShardsShareOneRotation(t *testing.T) {
	ds, _ := apiFixtures(t)
	opts := &Options{Seed: 3}

	sx, err := NewSharded(ds.Data, Flat, 4, &ShardOptions{Index: opts})
	if err != nil {
		t.Fatal(err)
	}
	enableRotating(t, sx, ds.Train)
	sharedRotations(t, sx)
	var buf bytes.Buffer
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sharedRotations(t, loaded)

	mx, err := NewMutable(ds.Data, Flat, 4, &MutableOptions{Index: opts, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	enableRotating(t, mx.ShardedIndex, ds.Train)
	before := sharedRotations(t, mx.ShardedIndex)
	for _, q := range ds.Queries[:8] { // two fresh rows per shard
		if _, err := mx.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := mx.Compact(); err != nil || n != 4 {
		t.Fatalf("Compact rebuilt %d shards, err %v; want 4", n, err)
	}
	for m, rot := range sharedRotations(t, mx.ShardedIndex) {
		if rot != before[m] {
			t.Errorf("%s: compaction replaced the rotation", m)
		}
	}
	buf.Reset()
	if err := mx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mx2, err := LoadMutable(&buf, &MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx2.Close()
	sharedRotations(t, mx2.ShardedIndex)
}

// TestLegacyPerShardRotations assembles the shape every index had before
// rotations were shared — four Index values, each with a PCA of its own
// rows — and checks that it saves its four rotations as distinct objects,
// loads them distinct, and answers: the fan-out's one rotate-once slot holds
// the first probe's rotation, and every probe whose rotation differs
// rotates the query for itself. That mismatch path is what this test
// covers.
func TestLegacyPerShardRotations(t *testing.T) {
	ds, gt := apiFixtures(t)
	ids, err := partitionRows(len(ds.Data), 4, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	legacy := &ShardedIndex{
		kind: HNSW, strategy: RoundRobin, metric: L2, globalID: ids,
		n: len(ds.Data), userDim: len(ds.Data[0]), workers: 2,
	}
	for s := range ids {
		part := make([][]float32, len(ids[s]))
		for i, gid := range ids[s] {
			part[i] = ds.Data[gid]
		}
		ix, err := New(part, HNSW, &Options{Seed: int64(s)})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Enable(DDCRes, nil); err != nil {
			t.Fatal(err)
		}
		legacy.shards = append(legacy.shards, ix)
	}
	legacy.initFanPool()

	var buf bytes.Buffer
	if err := legacy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sx := range []*ShardedIndex{legacy, loaded} {
		seen := map[*store.Matrix]bool{}
		for s := 0; s < 4; s++ {
			seen[rotationMatrix(t, sx, s, DDCRes)] = true
		}
		if len(seen) != 4 {
			t.Errorf("%d distinct rotations among 4 separately trained shards, want 4", len(seen))
		}
		if r := shardedRecallOf(t, sx, ds.Queries, gt, DDCRes, 100); r < 0.99 {
			t.Errorf("recall %.4f with per-shard rotations, want >= 0.99", r)
		}
	}
}

// TestRotationWrittenOnce: the shards of an index share a rotation per
// mode, so a saved stream carries it once and a loaded index shares it
// again. Enabling adsampling on four shards grows Save by the rotated rows
// and one D x D float32 rotation; ddc-res, which re-bases the rows in place,
// by one rotation, one mean and the shards' own variances. Each leaves a
// constant per shard beside that, never a second rotation.
func TestRotationWrittenOnce(t *testing.T) {
	ds, _ := apiFixtures(t)
	const shards, perShard = 4, 256 // perShard bounds magics, headers and length prefixes
	data := ds.Data[:1000]
	n, d := len(data), len(data[0])
	sx, err := NewSharded(data, Flat, shards, &ShardOptions{Index: &Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		var buf bytes.Buffer
		if err := sx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	for _, step := range []struct {
		mode Mode
		want int // bytes the mode adds beyond its per-shard constants
	}{
		{ADSampling, 4*n*d + 4*d*d},
		{DDCRes, 4*d*d + 4*d + shards*8*d},
	} {
		before := size()
		if err := sx.Enable(step.mode, nil); err != nil {
			t.Fatal(err)
		}
		if grew := size() - before; grew < step.want || grew >= step.want+shards*perShard {
			t.Errorf("enabling %s grew Save by %d bytes, want %d plus under %d of headers",
				step.mode, grew, step.want, shards*perShard)
		}
	}
	var buf bytes.Buffer
	if err := sx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{ADSampling, DDCRes} {
		for s := 1; s < shards; s++ {
			if rotationMatrix(t, loaded, s, m) != rotationMatrix(t, loaded, 0, m) {
				t.Errorf("%s: loaded shard %d rotates through its own matrix", m, s)
			}
		}
	}
}

// TestReEnableKeepsRecordedOptions: enabling a mode that is already on
// trains nothing, so it must not change what the next compaction builds
// either — or one shard would run with options its siblings never saw.
func TestReEnableKeepsRecordedOptions(t *testing.T) {
	ds, _ := apiFixtures(t)
	mx, err := NewMutable(ds.Data, Flat, 4, &MutableOptions{Index: &Options{Seed: 1}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if err := mx.Enable(ADSampling, &Options{DeltaD: 16}); err != nil {
		t.Fatal(err)
	}
	if err := mx.Enable(ADSampling, &Options{DeltaD: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := mx.Add(ds.Queries[0]); err != nil { // lands on one shard
		t.Fatal(err)
	}
	if n, err := mx.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact rebuilt %d shards, err %v; want 1", n, err)
	}
	if got := len(mx.mut.enables); got != 1 {
		t.Fatalf("%d recorded enables, want 1", got)
	}
	for s, sh := range mx.shards {
		if got := sh.modes[ADSampling].dco.(interface{ DeltaD() int }).DeltaD(); got != 16 {
			t.Errorf("shard %d runs adsampling with DeltaD %d, want the 16 it was enabled with", s, got)
		}
	}
}

// TestCompactionReportsLeadShare: the drift signal is measured on the
// rebuilt shard's rows. Rows drawn like the training set leave the share
// where PCA put it; rows with no structure pull it towards DeltaD/D.
func TestCompactionReportsLeadShare(t *testing.T) {
	ds, _ := apiFixtures(t)
	mx, err := NewMutable(ds.Data, Flat, 2, &MutableOptions{Index: &Options{Seed: 1}, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if err := mx.Enable(DDCRes, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	shares := map[int]float64{}
	mx.SetCompactionObserver(func(ci CompactionInfo) {
		mu.Lock()
		shares[ci.Shard] = ci.LeadShare
		mu.Unlock()
	})
	if _, err := mx.Add(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	fresh := shares[0]
	if fresh < 0.7 { // the fixture is generated with 80 % of its variance in 32 dimensions
		t.Fatalf("lead share %.3f on undrifted rows, want about 0.8", fresh)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2*len(ds.Data); i++ {
		row := make([]float32, len(ds.Data[0]))
		for j := range row {
			row[j] = float32(3 * rng.NormFloat64())
		}
		if _, err := mx.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	if drifted := shares[0]; drifted > fresh-0.1 {
		t.Errorf("lead share %.3f after isotropic ingest, %.3f before; want a clear drop", drifted, fresh)
	}
}

// TestRotationSharedUnderConcurrency is the -race test of the shared
// rotation: searches in two modes — one on the plain parallel fan-out, one
// on the deadline path with a shard slow enough that every query abandons
// a straggler, which then reads the fan's rotated query after its caller
// has returned — run through Enable of a third mode and through compaction
// swaps.
func TestRotationSharedUnderConcurrency(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "rotation-race", N: 800, Dim: 48, Queries: 16, TrainQueries: 40, VE32: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NewMutable(ds.Data, HNSW, 4, &MutableOptions{
		Index: &Options{Seed: 1}, SearchWorkers: 2, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	for _, m := range []Mode{DDCRes, ADSampling} {
		if err := mx.Enable(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	defer fault.Inject(fault.Injection{
		Site: fault.SiteShardSearch, Arg: 1, Delay: 3 * time.Millisecond, P: 0.5,
	})()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // plain path: every shard answers
		defer wg.Done()
		var dst []Neighbor
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if dst, _, err = mx.SearchInto(dst[:0], ds.Queries[i%len(ds.Queries)], 5, DDCRes, 40); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // deadline path: shard 1 is abandoned about half the time
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, st, err := mx.SearchCtx(ctx, nil, ds.Queries[i%len(ds.Queries)], 5, ADSampling, 40, nil)
			cancel()
			if err == nil && st.ShardsOK == 0 {
				t.Error("merge returned no error and no shard")
				return
			}
		}
	}()
	for round := 0; round < 3; round++ {
		for _, q := range ds.Queries {
			if _, err := mx.Add(q); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 {
			if err := mx.EnableWithTraining(DDCPCA, ds.Train, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mx.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	enableRotating(t, mx.ShardedIndex, ds.Train)
	sharedRotations(t, mx.ShardedIndex)
}
