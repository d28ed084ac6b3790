package quality_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/quality"
)

func buildSharded(t testing.TB, n, dim, shards int, seed int64) (*resinfer.ShardedIndex, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	sx, err := resinfer.NewSharded(data, resinfer.Flat, shards, &resinfer.ShardOptions{SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sx, data
}

func waitMeasured(t testing.TB, tr *quality.Tracker, want uint64) quality.Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := tr.Snapshot()
		if snap.Measured >= want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracker measured %d samples, want >= %d", snap.Measured, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestTrackerPerfectServingScoresRecallOne(t *testing.T) {
	const k = 10
	sx, _ := buildSharded(t, 500, 16, 3, 5)
	tr := quality.NewTrackerDepth(sx, quality.Config{SampleRate: 1}, 32)
	defer tr.Close()

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		q := make([]float32, 16)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		ns, err := sx.Search(q, k, resinfer.Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr.MaybeSample(q, ns, k)
	}
	snap := waitMeasured(t, tr, 20)
	if snap.RecallMean < 0.999 {
		t.Fatalf("exact serving scored recall %v, want 1.0", snap.RecallMean)
	}
	if snap.RecallWindowMean < 0.999 {
		t.Fatalf("window recall %v, want 1.0", snap.RecallWindowMean)
	}
	if snap.RecallEWMA < 0.999 {
		t.Fatalf("EWMA recall %v, want 1.0", snap.RecallEWMA)
	}
	if snap.RankDisplacementWindowMean != 0 {
		t.Fatalf("exact serving has rank displacement %v, want 0", snap.RankDisplacementWindowMean)
	}
	if snap.Sampled != 20 || snap.Dropped != 0 {
		t.Fatalf("sampled=%d dropped=%d, want 20/0", snap.Sampled, snap.Dropped)
	}
	var truthTotal uint64
	for _, sh := range snap.PerShard {
		truthTotal += sh.TruthNeighbors
		if sh.TruthNeighbors > 0 && sh.HitRate < 0.999 {
			t.Fatalf("shard %d hit rate %v under exact serving", sh.Shard, sh.HitRate)
		}
	}
	if truthTotal != 20*k {
		t.Fatalf("per-shard truth total %d, want %d", truthTotal, 20*k)
	}
	if snap.HotQueriesTotal != 20 || len(snap.HotQueries) == 0 {
		t.Fatalf("sketch saw %d offers (%d keys), want 20", snap.HotQueriesTotal, len(snap.HotQueries))
	}
}

func TestTrackerScoresDegradedServing(t *testing.T) {
	const k = 10
	sx, _ := buildSharded(t, 400, 16, 2, 9)
	tr := quality.NewTracker(sx, quality.Config{SampleRate: 1})
	defer tr.Close()

	rng := rand.New(rand.NewSource(10))
	q := make([]float32, 16)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	ns, err := sx.Search(q, k, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt half the answer with IDs that cannot be in the top-k, and
	// reverse the surviving order so displacement is non-zero.
	bad := make([]resinfer.Neighbor, k)
	for i := 0; i < k; i++ {
		bad[i] = ns[k-1-i]
	}
	for i := 0; i < k/2; i++ {
		bad[i].ID = 100000 + i
	}
	tr.MaybeSample(q, bad, k)
	snap := waitMeasured(t, tr, 1)
	if snap.RecallMean > 0.51 || snap.RecallMean < 0.49 {
		t.Fatalf("half-corrupt answer scored recall %v, want 0.5", snap.RecallMean)
	}
	if snap.RankDisplacementWindowMean == 0 {
		t.Fatalf("reversed answer scored zero rank displacement")
	}
}

// slowOracle blocks every ground-truth call until released.
type slowOracle struct {
	release chan struct{}
}

func (o *slowOracle) GroundTruthSearch(dst []resinfer.Neighbor, shards []int, q []float32, k int) ([]resinfer.Neighbor, []int, int, error) {
	<-o.release
	return dst, shards, 0, nil
}
func (o *slowOracle) NumShards() int { return 1 }

func TestTrackerDropsWhenSaturated(t *testing.T) {
	o := &slowOracle{release: make(chan struct{})}
	tr := quality.NewTrackerDepth(o, quality.Config{SampleRate: 1, Workers: 1}, 1)
	q := []float32{1, 2}
	served := []resinfer.Neighbor{{ID: 0}}
	// 1 in-flight with the worker + 1 queued; the rest must drop.
	for i := 0; i < 10; i++ {
		tr.MaybeSample(q, served, 1)
	}
	snap := tr.Snapshot()
	if snap.Dropped == 0 {
		t.Fatalf("saturated queue dropped nothing (sampled=%d)", snap.Sampled)
	}
	if snap.Sampled+snap.Dropped != 10 {
		t.Fatalf("sampled=%d + dropped=%d, want 10", snap.Sampled, snap.Dropped)
	}
	close(o.release)
	tr.Close()
}

func TestTrackerSampleRate(t *testing.T) {
	o := &slowOracle{release: make(chan struct{})}
	close(o.release) // never block
	tr := quality.NewTrackerDepth(o, quality.Config{SampleRate: 4}, 64)
	defer tr.Close()
	q := []float32{1}
	for i := 0; i < 100; i++ {
		tr.MaybeSample(q, nil, 1)
	}
	snap := tr.Snapshot()
	if snap.Sampled != 25 {
		t.Fatalf("rate-4 sampler admitted %d of 100, want 25", snap.Sampled)
	}
}

func TestNoteCompactionRollsEpoch(t *testing.T) {
	sx, _ := buildSharded(t, 200, 8, 2, 3)
	tr := quality.NewTracker(sx, quality.Config{SampleRate: 1})
	defer tr.Close()
	q := make([]float32, 8)
	ns, err := sx.Search(q, 5, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.MaybeSample(q, ns, 5)
	waitMeasured(t, tr, 1)
	tr.NoteCompaction()
	snap := tr.Snapshot()
	if snap.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", snap.Compactions)
	}
	if snap.PrevCompaction == nil || snap.PrevCompaction.Samples != 1 {
		t.Fatalf("previous epoch not retained: %+v", snap.PrevCompaction)
	}
	if snap.SinceCompaction.Samples != 0 {
		t.Fatalf("since-compaction epoch not reset: %+v", snap.SinceCompaction)
	}
}

func TestSpaceSavingHeavyHitters(t *testing.T) {
	s := quality.NewSpaceSaving(4)
	// One heavy key among noise wider than the sketch.
	for i := 0; i < 100; i++ {
		s.Offer(7777)
		s.Offer(uint64(1000 + i)) // all distinct
	}
	top := s.Top(4)
	if len(top) == 0 || top[0].Fingerprint != 7777 {
		t.Fatalf("heavy key missing from sketch top: %+v", top)
	}
	if top[0].Count < 100 {
		t.Fatalf("heavy key count %d, want >= 100 (space-saving never undercounts)", top[0].Count)
	}
	if s.Total() != 200 {
		t.Fatalf("total = %d, want 200", s.Total())
	}
}

func TestFingerprintQuantizes(t *testing.T) {
	a := []float32{0.5, -1.25, 3.0}
	b := []float32{0.5001, -1.2501, 3.0001} // same coarse grid cell
	c := []float32{0.5, -1.25, 3.5}
	if quality.Fingerprint(a) != quality.Fingerprint(b) {
		t.Fatal("near-duplicate queries fingerprint differently")
	}
	if quality.Fingerprint(a) == quality.Fingerprint(c) {
		t.Fatal("distinct queries collided")
	}
}

// TestQualityTrackerConcurrentIngestSearch exercises the shadow sampler
// under concurrent mutation and search — the CI -race leg's target.
func TestQualityTrackerConcurrentIngestSearch(t *testing.T) {
	const dim, k = 8, 5
	rng := rand.New(rand.NewSource(21))
	data := make([][]float32, 300)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = rng.Float32()
		}
	}
	mx, err := resinfer.NewMutable(data, resinfer.Flat, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	tr := quality.NewTracker(mx, quality.Config{SampleRate: 2, Workers: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := make([]float32, dim)
				for j := range v {
					v[j] = rng.Float32()
				}
				id, err := mx.Add(v)
				if err != nil {
					t.Error(err)
					return
				}
				if id%3 == 0 {
					if _, err := mx.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, dim)
			for i := 0; i < 200; i++ {
				for j := range q {
					q[j] = rng.Float32()
				}
				ns, err := mx.Search(q, k, resinfer.Exact, 0)
				if err != nil {
					t.Error(err)
					return
				}
				tr.MaybeSample(q, ns, k)
			}
		}(int64(200 + g))
	}
	// Roll compaction epochs concurrently with measurement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := mx.Compact(); err != nil {
				t.Error(err)
				return
			}
			tr.NoteCompaction()
			tr.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	tr.Close()
	snap := tr.Snapshot()
	if snap.Sampled == 0 {
		t.Fatal("nothing sampled under concurrent load")
	}
	// Under a mutating corpus recall stays an estimate — but exact-mode
	// serving should still mostly agree with ground truth taken moments
	// later; a wildly low figure signals a visibility bug.
	if snap.Measured > 0 && snap.RecallMean < 0.5 {
		t.Fatalf("concurrent exact serving scored recall %v", snap.RecallMean)
	}
}
