package ddc

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"resinfer/internal/adsampling"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/pca"
	"resinfer/internal/store"
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

// TestResSigmaTable pins the block-boundary bound table m·σ against the
// full per-depth suffix table (σ_d = sqrt(4·Σ_{i≥d} q_i²σ_i²) at every d,
// what Reset built before it skipped the depths nobody reads): one entry
// per depth Compare can stop at, bit-equal to m times the full table there. DDCres
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
				if k >= len(rev.bound) {
					t.Fatalf("(%d,%d): no bound entry for depth %d", c.initD, c.deltaD, d)
				}
				if want := r.m * float32(math.Sqrt(4*full[d])); rev.bound[k] != want {
					t.Fatalf("(%d,%d): m·σ at depth %d = %v, full table has %v", c.initD, c.deltaD, d, rev.bound[k], want)
				}
				k++
			}
			if k != len(rev.bound) {
				t.Fatalf("(%d,%d): %d bound entries for %d readable depths", c.initD, c.deltaD, len(rev.bound), k)
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
	// float32 norm per point + the n × InitD prefix table.
	want := int64(64*64*4 + len(ds.Data)*4 + len(ds.Data)*32*4)
	if r.ExtraBytes() != want {
		t.Fatalf("ExtraBytes = %d, want %d", r.ExtraBytes(), want)
	}
}

// TestResPrefixTable: the prefix table holds each rotated row's first InitD
// coordinates however the comparator was built — trained, re-based onto
// an index's rows, over an inherited rotation refit to new rows, decoded —
// and Compare reading round 0 from it answers bit for bit as it does
// reading the row. With dim ≤ InitD there is no table.
func TestResPrefixTable(t *testing.T) {
	for _, dim := range []int{33, 420} {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "prefix", N: 600, Dim: dim, Queries: 4, VE32: 0.7, Seed: int64(dim),
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, fresh := ds.Matrix(), store.MustFromRows(ds.Queries)
		trained, err := NewRes(rows, ResConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		model, err := pca.Train(pca.Config{Seed: 5}, rows)
		if err != nil {
			t.Fatal(err)
		}
		rebased, err := model.ProjectMatrix(rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		enabled, err := NewResRotated(rebased, model, ResConfig{})
		if err != nil {
			t.Fatal(err)
		}
		moved, err := trained.Model().ProjectMatrix(fresh, 0)
		if err != nil {
			t.Fatal(err)
		}
		inherited, err := NewResRotated(moved, trained.Model().Refit(moved), ResConfig{})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeRes(reader(encodeBytes(t, trained)), trained.Rotated(), trained.Model())
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*Res{"NewRes": trained, "Enable": enabled, "Refit": inherited, "DecodeRes": decoded} {
			if len(r.pre.Pre()) != r.Size()*r.initD {
				t.Fatalf("%d-d %s: table of %d floats, want %d × %d", dim, name, len(r.pre.Pre()), r.Size(), r.initD)
			}
			for i := 0; i < r.Size(); i++ {
				if !vec.Equal(r.pre.Pre()[i*r.initD:(i+1)*r.initD], r.Rotated().Row(i)[:r.initD]) {
					t.Fatalf("%d-d %s: row %d's table entry is not its prefix", dim, name, i)
				}
			}
		}
		rowOnly := *trained
		rowOnly.pre = nil
		for qi, q := range ds.Queries {
			exact := make([]float32, rows.Rows())
			gt := primed(t, trained.NewEvaluator(), q)
			for i := range exact {
				exact[i] = gt.Distance(i)
			}
			ev := primed(t, trained.NewEvaluator(), q)
			ref := primed(t, rowOnly.NewEvaluator(), q)
			kth := quantile32(exact, 10/float64(len(exact)))
			for _, tau := range []float32{kth, core.InfThreshold, 1e-6} {
				for i := range exact {
					d, p := ev.Compare(i, tau)
					rd, rp := ref.Compare(i, tau)
					if math.Float32bits(d) != math.Float32bits(rd) || p != rp {
						t.Fatalf("%d-d q%d τ %v row %d: table (%v, %v), row only (%v, %v)", dim, qi, tau, i, d, p, rd, rp)
					}
				}
			}
			if *ev.Stats() != *ref.Stats() {
				t.Fatalf("%d-d q%d: stats %+v, row only %+v", dim, qi, *ev.Stats(), *ref.Stats())
			}
		}
	}
	ds := getDS(t)
	for _, initD := range []int{64, 100} {
		r, err := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: initD})
		if err != nil {
			t.Fatal(err)
		}
		if r.pre != nil || r.ExtraBytes() != int64(64*64*4+len(ds.Data)*4) {
			t.Fatalf("dim 64, InitD %d: a table (%v), ExtraBytes %d", initD, r.pre != nil, r.ExtraBytes())
		}
	}
}

func TestCollectSamples(t *testing.T) {
	ds := getDS(t)
	samples, err := CollectSamples(ds.Matrix(), ds.Train[:10], 1)
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
		if n0 != collectK || n1 == 0 {
			t.Fatalf("n0=%d n1=%d", n0, n1)
		}
	}
}

func TestCollectSamplesErrors(t *testing.T) {
	ds := getDS(t)
	if _, err := CollectSamples(nil, ds.Train[:1], 0); err == nil {
		t.Fatal("expected empty-data error")
	}
	if _, err := CollectSamples(ds.Matrix(), nil, 0); err == nil {
		t.Fatal("expected no-queries error")
	}
}

// TestCollectSamplesIndependentOfGOMAXPROCS pins what lets collection run
// on every core with no worker setting: each query draws from its own
// seeded source, so one seed gives the same samples on one core or two.
func TestCollectSamplesIndependentOfGOMAXPROCS(t *testing.T) {
	ds := getDS(t)
	collect := func(procs int) []QuerySamples {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		samples, err := CollectSamples(ds.Matrix(), ds.Train[:12], 5)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	one, two := collect(1), collect(2)
	for qi := range one {
		a, b := one[qi], two[qi]
		if !slices.Equal(a.Query, b.Query) || math.Float32bits(a.Tau) != math.Float32bits(b.Tau) ||
			!slices.Equal(a.IDs, b.IDs) || !slices.Equal(a.Exact, b.Exact) || !slices.Equal(a.Labels, b.Labels) {
			t.Fatalf("query %d: samples at GOMAXPROCS 1 differ from those at 2", qi)
		}
	}
}

func TestPCADCOBasics(t *testing.T) {
	ds := getDS(t)
	p, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{Seed: 2})
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
	if _, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{TargetRecall: 1.5, Seed: 1}); err == nil {
		t.Fatal("expected target recall error")
	}
}

func TestOPQDCOBasics(t *testing.T) {
	ds := getDS(t)
	o, err := NewOPQ(ds.Matrix(), ds.Train, OPQConfig{
		M: 8, Nbits: 6, OPQIters: 2, Seed: 4,
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

// TestPruneAgreesWithCompare holds ddc-res's bulk round 0 to Compare: every
// id Prune rules out is one Compare(id, τ) prunes in round 0, with the
// estimate Prune's own test derives; Prune followed by Compare over the
// survivors counts exactly what Compare over every id counts; τ = +Inf, or
// no prefix table (dim ≤ InitD), keeps every id. The comparators that rule
// out nothing in bulk hand back their input, uncopied and uncounted.
func TestPruneAgreesWithCompare(t *testing.T) {
	for _, dim := range []int{33, 420} {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "prune", N: 300, Dim: dim, Queries: 3, VE32: 0.7, Seed: int64(dim),
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRes(ds.Matrix(), ResConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Every id out of order, then a run of repeats: 300 + 30 ids,
		// handed to Prune core.PruneBlock at a time as a scan does, the
		// last block a short one.
		ids := make([]int32, 0, 330)
		for _, i := range rand.New(rand.NewSource(int64(dim))).Perm(r.Size()) {
			ids = append(ids, int32(i))
		}
		ids = append(ids, ids[:30]...)
		for qi, q := range ds.Queries {
			gt := primed(t, r.NewEvaluator(), q)
			exact := make([]float32, r.Size())
			for i := range exact {
				exact[i] = gt.Distance(i)
			}
			for _, tau := range []float32{quantile32(exact, 0.03), quantile32(exact, 0.5), 1e-6, core.InfThreshold} {
				pr := primed(t, r.NewEvaluator(), q)
				one := primed(t, r.NewEvaluator(), q).(*resEvaluator)
				all := primed(t, r.NewEvaluator(), q)
				var keep []int32
				for b := 0; b < len(ids); b += core.PruneBlock {
					keep = append(keep, pr.Prune(ids[b:min(b+core.PruneBlock, len(ids))], tau, nil)...)
				}
				if math.IsInf(float64(tau), 1) && (len(keep) != len(ids) || *pr.Stats() != (core.Stats{})) {
					t.Fatalf("%d-d q%d: τ = +Inf kept %d of %d ids, counted %+v", dim, qi, len(keep), len(ids), *pr.Stats())
				}
				j := 0
				for _, id := range ids {
					before := *all.Stats()
					d, pruned := all.Compare(int(id), tau)
					if j < len(keep) && keep[j] == id {
						j++
						continue
					}
					if len(one.Prune([]int32{id}, tau, nil)) != 0 {
						t.Fatalf("%d-d q%d τ %v: id %d dropped in a block, kept alone", dim, qi, tau, id)
					}
					est := r.norms[id] + one.qNorm - 2*vec.Dot(one.q[:r.initD], r.Rotated().Row(int(id))[:r.initD])
					after := *all.Stats()
					if !pruned || math.Float32bits(d) != math.Float32bits(est) ||
						after.Comparisons-before.Comparisons != 1 || after.DimsScanned-before.DimsScanned != int64(r.initD) {
						t.Fatalf("%d-d q%d τ %v: Prune dropped id %d (estimate %v); Compare answers (%v, %v) after %d dims",
							dim, qi, tau, id, est, d, pruned, after.DimsScanned-before.DimsScanned)
					}
				}
				if j != len(keep) {
					t.Fatalf("%d-d q%d τ %v: Prune kept %d ids, %d of them in order", dim, qi, tau, len(keep), j)
				}
				for _, id := range keep {
					pr.Compare(int(id), tau)
				}
				if *pr.Stats() != *all.Stats() {
					t.Fatalf("%d-d q%d τ %v: Prune + Compare count %+v, Compare alone %+v", dim, qi, tau, *pr.Stats(), *all.Stats())
				}
			}
		}
	}

	ds := getDS(t)
	q, ids := ds.Queries[0], []int32{4, 2, 2, 9, 0}
	rows, err := NewRes(ds.Matrix(), ResConfig{Seed: 1, InitD: 64})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.NewExact(ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	inBasis, err := core.NewExactIn(rows.Rotated(), rows.Model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ads, err := adsampling.New(ds.Matrix(), adsampling.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pcaDCO, err := NewPCA(ds.Matrix(), ds.Train, PCAConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opq, err := NewOPQ(ds.Matrix(), ds.Train, OPQConfig{M: 8, Nbits: 6, OPQIters: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, dco := range map[string]core.DCO{
		"ddc-res, dim ≤ InitD": rows, "exact": exact, "exact in a basis": inBasis,
		"adsampling": ads, "ddc-pca": pcaDCO, "ddc-opq": opq,
	} {
		ev := primed(t, dco.NewEvaluator(), q)
		got := ev.Prune(ids, 1e-6, make([]int32, 0, 8))
		if len(got) != len(ids) || &got[0] != &ids[0] || *ev.Stats() != (core.Stats{}) {
			t.Fatalf("%s: Prune returned %v (counted %+v), want its input back", name, got, *ev.Stats())
		}
	}
}

// TestCompareResumesAfterPrune holds the hand-off from Prune to Compare to
// its contract: Compare over a block's survivors, in order, answers exactly
// what a fresh evaluator's Compare answers (value bits, prune flag and
// counters), and so does every Compare the hand-off must not serve —
// survivors out of order or skipped, an id Prune ruled out or never saw,
// survivors of an earlier block after another Prune, survivors after a
// Reset to another query, and ids a caller wrote over its keep.
func TestCompareResumesAfterPrune(t *testing.T) {
	for _, dim := range []int{33, 420} {
		ds, err := dataset.Generate(dataset.GenConfig{
			Name: "resume", N: 300, Dim: dim, Queries: 3, VE32: 0.7, Seed: int64(dim) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRes(ds.Matrix(), ResConfig{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(int64(dim))).Perm(r.Size())
		blk, blk2 := make([]int32, core.PruneBlock), make([]int32, core.PruneBlock)
		for i := range blk {
			blk[i], blk2[i] = int32(perm[i]), int32(perm[core.PruneBlock+i])
		}
		for qi, q := range ds.Queries {
			gt := primed(t, r.NewEvaluator(), q)
			exact := make([]float32, r.Size())
			for i := range exact {
				exact[i] = gt.Distance(i)
			}
			tau := quantile32(exact, 0.2)
			// check Compares id under τ on ev and on a fresh evaluator
			// reset to q.
			check := func(what string, ev core.ResettableEvaluator, q []float32, id int32, tau float32) {
				t.Helper()
				fresh := primed(t, r.NewEvaluator(), q)
				before := *ev.Stats()
				d, pruned := ev.Compare(int(id), tau)
				wd, wpruned := fresh.Compare(int(id), tau)
				after := *ev.Stats()
				delta := core.Stats{
					Comparisons: after.Comparisons - before.Comparisons, Pruned: after.Pruned - before.Pruned,
					ExactDistances: after.ExactDistances - before.ExactDistances, DimsScanned: after.DimsScanned - before.DimsScanned,
				}
				if math.Float32bits(d) != math.Float32bits(wd) || pruned != wpruned || delta != *fresh.Stats() {
					t.Fatalf("%d-d q%d, %s: Compare(%d, %v) = (%v, %v) counting %+v; fresh (%v, %v) counting %+v",
						dim, qi, what, id, tau, d, pruned, delta, wd, wpruned, *fresh.Stats())
				}
			}
			prune := func(ev core.ResettableEvaluator, blk []int32) []int32 {
				return ev.Prune(blk, tau, make([]int32, 0, core.PruneBlock))
			}
			ev := primed(t, r.NewEvaluator(), q)
			keep := prune(ev, blk)
			if len(keep) == 0 || len(keep) == len(blk) {
				t.Fatalf("%d-d q%d: τ at the 0.2 quantile kept %d of %d ids", dim, qi, len(keep), len(blk))
			}
			var out []int32 // ids of blk Prune ruled out
			for _, id := range blk {
				if !slices.Contains(keep, id) {
					out = append(out, id)
				}
			}
			for i, id := range keep { // in order, τ falling as a scan's does
				check("in order", ev, q, id, tau*float32(1-0.01*float64(i)))
			}

			ev = primed(t, r.NewEvaluator(), q)
			keep = prune(ev, blk)
			for i := len(keep) - 1; i >= 0; i-- {
				check("out of order", ev, q, keep[i], tau)
			}

			ev = primed(t, r.NewEvaluator(), q)
			keep = prune(ev, blk)
			check("ruled out", ev, q, out[0], tau)
			check("never seen", ev, q, blk2[0], tau)
			for i := 1; i < len(keep); i += 2 {
				check("skipping", ev, q, keep[i], tau)
			}

			ev = primed(t, r.NewEvaluator(), q)
			keep = prune(ev, blk)
			prune(ev, blk2)
			for _, id := range keep {
				check("after another Prune", ev, q, id, tau)
			}

			other := ds.Queries[(qi+1)%len(ds.Queries)]
			ev = primed(t, r.NewEvaluator(), q)
			keep = prune(ev, blk)
			primed(t, ev, other)
			for _, id := range keep {
				check("after Reset", ev, other, id, tau)
			}

			ev = primed(t, r.NewEvaluator(), q)
			keep = prune(ev, blk)
			kept := slices.Clone(keep)
			keep[0], keep[1] = out[0], kept[0]
			check("overwritten keep", ev, q, keep[0], tau)
			for _, id := range kept {
				check("after overwritten keep", ev, q, id, tau)
			}
		}
	}
}
