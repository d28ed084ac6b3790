package ddc

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/vec"
)

// testData caches one small calibrated dataset for the whole package.
var testDS *dataset.Dataset

func getDS(t testing.TB) *dataset.Dataset {
	if testDS == nil {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "ddc-test", N: 3000, Dim: 64, Queries: 20, TrainQueries: 60,
			VE32: 0.85, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		testDS = ds
	}
	return testDS
}

// primed Resets ev to q. Tests build one evaluator per comparator and
// re-prime it per query, the way Index.walk does in production.
func primed(t testing.TB, ev core.ResettableEvaluator, q []float32) core.ResettableEvaluator {
	t.Helper()
	if err := ev.Reset(q); err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewResErrors(t *testing.T) {
	if _, err := NewRes(nil, ResConfig{}); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestResDistanceExact(t *testing.T) {
	ds := getDS(t)
	r, err := NewRes(ds.Matrix(), ResConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0]
	ev := primed(t, r.NewEvaluator(), q)
	for id := 0; id < 50; id++ {
		got := float64(ev.Distance(id))
		want := vec.L2Sq64(q, ds.Data[id])
		if math.Abs(got-want) > 1e-2*(1+want) {
			t.Fatalf("Distance(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestResCompareFallthroughIsExact(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: 8, DeltaD: 8})
	q := ds.Queries[1]
	ev := primed(t, r.NewEvaluator(), q)
	for id := 0; id < 100; id++ {
		want := vec.L2Sq64(q, ds.Data[id])
		// Huge tau: never prunes, always exact.
		got, pruned := ev.Compare(id, 1e30)
		if pruned {
			t.Fatal("must not prune under huge tau")
		}
		if math.Abs(float64(got)-want) > 1e-2*(1+want) {
			t.Fatalf("fallthrough dist %v, want %v", got, want)
		}
	}
}

func TestResCompareInfTau(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1})
	ev := primed(t, r.NewEvaluator(), ds.Queries[0])
	_, pruned := ev.Compare(3, float32(math.Inf(1)))
	if pruned {
		t.Fatal("must not prune against +Inf")
	}
}

// Soundness: with m=3 the false-prune rate must be far below 1%.
func TestResCompareSoundness(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1, Multiplier: 3})
	falsePrunes, prunes := 0, 0
	rng := rand.New(rand.NewSource(4))
	ev := r.NewEvaluator()
	for _, q := range ds.Queries {
		primed(t, ev, q)
		for trial := 0; trial < 200; trial++ {
			id := rng.Intn(len(ds.Data))
			exact := vec.L2Sq(q, ds.Data[id])
			tau := exact * (0.5 + rng.Float32())
			_, pruned := ev.Compare(id, tau)
			if pruned {
				prunes++
				if exact <= tau {
					falsePrunes++
				}
			}
		}
	}
	if prunes == 0 {
		t.Fatal("no prunes; test mis-configured")
	}
	if rate := float64(falsePrunes) / float64(prunes); rate > 0.01 {
		t.Fatalf("false prune rate %v (%d/%d)", rate, falsePrunes, prunes)
	}
}

// Effectiveness: on skewed data DDCres must scan far fewer dimensions than
// an exact scan when pruning against tight thresholds.
func TestResScansFewDimensions(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: 8, DeltaD: 8})
	q := ds.Queries[2]
	ev := primed(t, r.NewEvaluator(), q)
	// Tau near the 10-NN distance: most points should prune early.
	dists := make([]float32, len(ds.Data))
	for id := range ds.Data {
		dists[id] = vec.L2Sq(q, ds.Data[id])
	}
	tau := quantile32(dists, 0.003)
	for id := range ds.Data {
		ev.Compare(id, tau)
	}
	st := ev.Stats()
	if rate := st.ScanRate(64); rate > 0.5 {
		t.Fatalf("scan rate %v should be well below 1 (pruned %d/%d)",
			rate, st.Pruned, st.Comparisons)
	}
}

// TestResSigmaTable pins the block-boundary σ table against the full
// per-depth suffix table (σ_d = sqrt(4·Σ_{i≥d} q_i²σ_i²) at every d, what
// Reset built before it skipped the depths nobody reads): one entry per
// depth Compare can stop at, bit-equal to the full table there. DDCres
// must also prune earlier than a random rotation would — proxy check: PCA
// concentrates variance, so σ at depth 32 is far below σ at depth 0.
func TestResSigmaTable(t *testing.T) {
	ds := getDS(t)
	const dim = 64
	for _, c := range []struct{ initD, deltaD int }{{32, 32}, {16, 48}, {dim, dim}, {8, 8}, {5, 7}} {
		r, err := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: c.initD, DeltaD: c.deltaD})
		if err != nil {
			t.Fatal(err)
		}
		rev := r.NewEvaluator().(*resEvaluator)
		for _, q := range ds.Queries[:5] {
			primed(t, rev, q)
			full := vec.SuffixWeightedSq(rev.q, r.model.Sigmas)
			k := 0
			for d := c.initD; d < dim; d += c.deltaD {
				if k >= len(rev.sigma) {
					t.Fatalf("(%d,%d): no σ entry for depth %d", c.initD, c.deltaD, d)
				}
				if want := float32(math.Sqrt(4 * full[d])); rev.sigma[k] != want {
					t.Fatalf("(%d,%d): σ at depth %d = %v, full table has %v", c.initD, c.deltaD, d, rev.sigma[k], want)
				}
				k++
			}
			if k != len(rev.sigma) {
				t.Fatalf("(%d,%d): %d σ entries for %d readable depths", c.initD, c.deltaD, len(rev.sigma), k)
			}
			if c.initD == 32 && full[32] > full[0]*0.7*0.7 {
				t.Fatalf("σ²[32]=%v should decay strongly from σ²[0]=%v on skewed data", full[32], full[0])
			}
		}
	}
}

func TestResAlgorithm1Mode(t *testing.T) {
	// DeltaD >= Dim gives the non-incremental Algorithm 1: one test at
	// InitD, then exact.
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: 16, DeltaD: 9999})
	q := ds.Queries[3]
	ev := primed(t, r.NewEvaluator(), q)
	_, pruned := ev.Compare(0, 1e-6)
	if !pruned {
		t.Fatal("tiny tau must prune at the first test")
	}
	st := ev.Stats()
	if st.DimsScanned != 16 {
		t.Fatalf("Algorithm-1 mode scanned %d dims, want 16", st.DimsScanned)
	}
}

func TestResEstimationError(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1})
	q := ds.Queries[0]
	// The estimation error dis − dis'_d of Eq. 2 is eps = −2⟨q_r, x_r⟩ over
	// the residual dimensions of the rotated query and row (0 at full
	// depth). It must satisfy the decomposition the comparator prunes on:
	// dis' = C1 − C2 = |x|²+|q|²−2⟨q_d,x_d⟩ and dis = dis' + eps.
	rev := primed(t, r.NewEvaluator(), q)
	exact := float64(rev.Distance(5))
	rq, _ := r.Model().Project(q)
	x := r.Rotated().Row(5)
	for _, d := range []int{8, 16, 32, 64} {
		eps := -2 * vec.Dot64(rq[d:], x[d:])
		disApprox := float64(vec.NormSq(x)) + float64(vec.NormSq(rq)) -
			2*vec.Dot64(rq[:d], x[:d])
		if math.Abs(disApprox+eps-exact) > 1e-2*(1+exact) {
			t.Fatalf("depth %d: decomposition identity violated: %v + %v != %v",
				d, disApprox, eps, exact)
		}
	}
}

func TestResExtraBytes(t *testing.T) {
	ds := getDS(t)
	r, _ := NewRes(ds.Matrix(), ResConfig{Seed: 1})
	// D² float32 for the rotation (the paper's Exp-3 accounting) + one
	// float32 norm per point.
	want := int64(64*64*4 + len(ds.Data)*4)
	if r.ExtraBytes() != want {
		t.Fatalf("ExtraBytes = %d, want %d", r.ExtraBytes(), want)
	}
}

func TestCollectSamples(t *testing.T) {
	ds := getDS(t)
	samples, err := CollectSamples(ds.Matrix(), ds.Train[:10], CollectConfig{K: 20, NegPerQuery: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("len = %d", len(samples))
	}
	for _, qs := range samples {
		if len(qs.IDs) != len(qs.Exact) || len(qs.IDs) != len(qs.Labels) {
			t.Fatal("ragged sample")
		}
		n0, n1 := 0, 0
		for i, lab := range qs.Labels {
			switch lab {
			case 0:
				n0++
				if qs.Exact[i] > qs.Tau {
					t.Fatal("label-0 sample beyond tau")
				}
			case 1:
				n1++
				if qs.Exact[i] <= qs.Tau {
					t.Fatal("label-1 sample within tau")
				}
			default:
				t.Fatal("bad label")
			}
			// Exact distances must be genuine.
			want := vec.L2Sq(qs.Query, ds.Data[qs.IDs[i]])
			if qs.Exact[i] != want {
				t.Fatal("stored exact distance mismatch")
			}
		}
		if n0 != 20 || n1 == 0 {
			t.Fatalf("n0=%d n1=%d", n0, n1)
		}
	}
}

func TestCollectSamplesErrors(t *testing.T) {
	ds := getDS(t)
	if _, err := CollectSamples(nil, ds.Train[:1], CollectConfig{}); err == nil {
		t.Fatal("expected empty-data error")
	}
	if _, err := CollectSamples(ds.Matrix(), nil, CollectConfig{}); err == nil {
		t.Fatal("expected no-queries error")
	}
}

func TestPCADCOBasics(t *testing.T) {
	ds := getDS(t)
	p, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{
		Seed:    2,
		Collect: CollectConfig{K: 20, NegPerQuery: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "ddc-pca" || p.Size() != len(ds.Data) || p.Dim() != 64 {
		t.Fatal("metadata")
	}
	if len(p.Levels()) == 0 || len(p.classifiers) != len(p.Levels()) {
		t.Fatal("levels/classifiers mismatch")
	}
	q := ds.Queries[0]
	ev := primed(t, p.NewEvaluator(), q)
	// Exactness of the fallthrough.
	for id := 0; id < 30; id++ {
		want := vec.L2Sq64(q, ds.Data[id])
		got, pruned := ev.Compare(id, 1e30)
		if pruned {
			t.Fatal("huge tau must not prune")
		}
		if math.Abs(float64(got)-want) > 1e-2*(1+want) {
			t.Fatalf("pca fallthrough %v want %v", got, want)
		}
	}
}

// The learned correction must keep the false-prune rate near the recall
// target: label-0-style candidates (true neighbors) survive.
func TestPCADCOFalsePruneRate(t *testing.T) {
	ds := getDS(t)
	p, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{
		Seed:         3,
		TargetRecall: 0.995,
		Collect:      CollectConfig{K: 20, NegPerQuery: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	falsePrunes, keepers := 0, 0
	ev := p.NewEvaluator()
	for _, q := range ds.Queries {
		primed(t, ev, q)
		// Ground truth top-20: these must essentially never prune at
		// tau = the 20-NN distance.
		dists := make([]float32, len(ds.Data))
		for id := range ds.Data {
			dists[id] = vec.L2Sq(q, ds.Data[id])
		}
		tau := quantile32(dists, 20.0/float64(len(ds.Data)))
		for id := range ds.Data {
			if dists[id] <= tau {
				keepers++
				if _, pruned := ev.Compare(id, tau); pruned {
					falsePrunes++
				}
			}
		}
	}
	if keepers == 0 {
		t.Fatal("no keepers found")
	}
	if rate := float64(falsePrunes) / float64(keepers); rate > 0.05 {
		t.Fatalf("false prune rate on true neighbors = %v (%d/%d)",
			rate, falsePrunes, keepers)
	}
}

func TestPCADCOLevelValidation(t *testing.T) {
	ds := getDS(t)
	if _, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{Levels: []int{64}, Seed: 1,
		Collect: CollectConfig{K: 10, NegPerQuery: 20}}); err == nil {
		t.Fatal("expected level >= dim error")
	}
	if _, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{TargetRecall: 1.5, Seed: 1}); err == nil {
		t.Fatal("expected target recall error")
	}
}

func TestOPQDCOBasics(t *testing.T) {
	ds := getDS(t)
	o, err := NewOPQ(ds.Matrix(), ds.Train, OPQConfig{
		M: 8, Nbits: 6, OPQIters: 2, Seed: 4,
		Collect: CollectConfig{K: 20, NegPerQuery: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "ddc-opq" || o.Size() != len(ds.Data) || o.Dim() != 64 {
		t.Fatal("metadata")
	}
	q := ds.Queries[0]
	ev := primed(t, o.NewEvaluator(), q)
	for id := 0; id < 30; id++ {
		want := vec.L2Sq(q, ds.Data[id])
		got, pruned := ev.Compare(id, 1e30)
		if pruned {
			t.Fatal("huge tau must not prune")
		}
		if got != want {
			t.Fatalf("opq fallthrough %v want %v (must be exact)", got, want)
		}
	}
	if err := o.NewEvaluator().Reset(make([]float32, 3)); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

func TestOPQDCOPrunesAggressively(t *testing.T) {
	ds := getDS(t)
	o, err := NewOPQ(ds.Matrix(), ds.Train, OPQConfig{
		M: 8, Nbits: 6, OPQIters: 2, Seed: 5,
		Collect: CollectConfig{K: 20, NegPerQuery: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[1]
	ev := primed(t, o.NewEvaluator(), q)
	dists := make([]float32, len(ds.Data))
	for id := range ds.Data {
		dists[id] = vec.L2Sq(q, ds.Data[id])
	}
	tau := quantile32(dists, 20.0/float64(len(ds.Data)))
	for id := range ds.Data {
		ev.Compare(id, tau)
	}
	st := ev.Stats()
	if st.PrunedRate() < 0.5 {
		t.Fatalf("pruned rate %v too low; classifier useless", st.PrunedRate())
	}
	// And the paper's key safety property: among pruned points, almost
	// none are true neighbors.
	falsePrunes := 0
	ev2 := primed(t, o.NewEvaluator(), q)
	for id := range ds.Data {
		if _, pruned := ev2.Compare(id, tau); pruned && dists[id] <= tau {
			falsePrunes++
		}
	}
	if falsePrunes > 3 {
		t.Fatalf("%d true neighbors were pruned", falsePrunes)
	}
}

func TestOPQDCONoResidualFeature(t *testing.T) {
	ds := getDS(t)
	o, err := NewOPQ(ds.Matrix(), ds.Train[:30], OPQConfig{
		M: 8, Nbits: 4, OPQIters: 1, Seed: 6, DisableResidualFeature: true,
		Collect: CollectConfig{K: 10, NegPerQuery: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.clf.W) != 2 {
		t.Fatalf("expected 2 features without residual, got %d", len(o.clf.W))
	}
}

func TestResDeterministic(t *testing.T) {
	ds := getDS(t)
	a, _ := NewRes(ds.Matrix(), ResConfig{Seed: 7})
	b, _ := NewRes(ds.Matrix(), ResConfig{Seed: 7})
	if !vec.Equal(a.Rotated().Row(3), b.Rotated().Row(3)) {
		t.Fatal("same seed must rotate identically")
	}
}

// quantile32 returns the q-quantile of xs without mutating the original.
func quantile32(xs []float32, q float64) float32 {
	cp := append([]float32(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	k := int(q * float64(len(cp)-1))
	if k < 0 {
		k = 0
	}
	return cp[k]
}

var _ core.DCO = (*Res)(nil)
var _ core.DCO = (*PCADCO)(nil)
var _ core.DCO = (*OPQDCO)(nil)
