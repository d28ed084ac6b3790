package quality_test

import (
	"math/rand"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/allocguard"
	"resinfer/internal/quality"
)

// allocSetup builds the guard's fixture: a sharded index with the
// shadow sampler attached at an aggressive rate (1/8 instead of the
// production 1/256, so the 200-run measurement crosses the sampled path
// ~25 times) and a long warmup that seeds every pool — job buffers,
// ground-truth scratch, the fingerprint sketch — before measuring.
func allocSetup(t testing.TB) (*resinfer.ShardedIndex, *quality.Tracker, []float32) {
	const n, dim = 2000, 32
	rng := rand.New(rand.NewSource(17))
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	sx, err := resinfer.NewSharded(data, resinfer.Flat, 4, &resinfer.ShardOptions{SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := quality.NewTracker(sx, quality.Config{SampleRate: 8})
	q := make([]float32, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	return sx, tr, q
}

// TestShadowSampledSearchZeroAlloc enforces the tentpole's hot-path
// bar: with the shadow sampler enabled, the untraced sharded search
// path (search + MaybeSample) stays at 0 allocs/op — including the
// amortized cost of sampled iterations and the off-path ground-truth
// worker, since AllocsPerRun counts process-global allocations.
func TestShadowSampledSearchZeroAlloc(t *testing.T) {
	allocguard.SkipIfInstrumented(t)
	sx, tr, q := allocSetup(t)
	defer tr.Close()
	const k = 10
	var dst []resinfer.Neighbor
	search := func() {
		var err error
		dst, _, err = sx.SearchInto(dst[:0], q, k, resinfer.Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr.MaybeSample(q, dst, k)
	}
	// Warm every pool across many sampled iterations — on PerRun's single
	// P the worker falls behind, so the queue fills and the job pool grows
	// to the most the measurement can have in flight — then let the worker
	// drain so mid-measurement processing is steady-state.
	allocs := allocguard.PerRun(200, func() {
		for i := 0; i < 256; i++ {
			search()
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if snap := tr.Snapshot(); snap.Sampled > 0 && snap.Measured == snap.Sampled {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}, search)
	if allocs != 0 {
		t.Fatalf("sharded search with shadow sampling on: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkSearchWithShadowSampling reports the sampler's hot-path
// overhead (compare against the same loop in the root package's
// sharded benchmarks) and must show 0 B/op at steady state.
func BenchmarkSearchWithShadowSampling(b *testing.B) {
	sx, tr, q := allocSetup(b)
	defer tr.Close()
	const k = 10
	var dst []resinfer.Neighbor
	for i := 0; i < 64; i++ {
		var err error
		dst, _, err = sx.SearchInto(dst[:0], q, k, resinfer.Exact, 0)
		if err != nil {
			b.Fatal(err)
		}
		tr.MaybeSample(q, dst, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = sx.SearchInto(dst[:0], q, k, resinfer.Exact, 0)
		if err != nil {
			b.Fatal(err)
		}
		tr.MaybeSample(q, dst, k)
	}
}
