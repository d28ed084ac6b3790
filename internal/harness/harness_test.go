package harness

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/heap"
)

// tinyArtifacts returns the artifact set of a fast ad-hoc profile, cached
// under name the way Get caches the registered profiles, so the tests that
// ask for the same name share one build.
func tinyArtifacts(name string) *Artifacts {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if a, ok := cache[name]; ok {
		return a
	}
	a := &Artifacts{
		Profile: dataset.Profile{GenConfig: dataset.GenConfig{
			Name: name, N: 1500, Dim: 64, Queries: 15, TrainQueries: 40,
			VE32: 0.8, Seed: 5,
		}},
		gt:      map[int][][]int{},
		timings: map[string]time.Duration{},
	}
	cache[name] = a
	return a
}

func TestRegistryCompleteness(t *testing.T) {
	reg := Registry()
	want := []string{"fig1", "fig2", "exp1", "exp2", "exp3", "exp4", "exp5",
		"exp6", "exp7", "exp8", "expA2", "expA3", "abl1", "abl2", "abl3"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Title == "" || reg[i].PaperRef == "" {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, err := ByID("exp1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestGetUnknownProfile(t *testing.T) {
	if _, err := Get("definitely-not-a-profile"); err != nil {
		// expected
	} else {
		t.Fatal("expected error")
	}
}

func TestGetCachesInstance(t *testing.T) {
	a1, err := Get("deep")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Get("deep")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Get must return the cached instance")
	}
}

func TestArtifactsLifecycle(t *testing.T) {
	a := tinyArtifacts("harness-tiny")
	ds, err := a.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Data) != 1500 {
		t.Fatalf("N = %d", len(ds.Data))
	}
	if a.Timing("dataset") <= 0 {
		t.Fatal("dataset timing not recorded")
	}
	gt, err := a.GroundTruth(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt) != 15 || len(gt[0]) != 10 {
		t.Fatalf("gt shape %dx%d", len(gt), len(gt[0]))
	}
	// All five DCO modes must build and agree on metadata.
	for _, mode := range AllModes {
		dco, err := a.DCO(mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if dco.Size() != 1500 || dco.Dim() != 64 {
			t.Fatalf("%s metadata wrong", mode)
		}
	}
	if _, err := a.DCO("bogus"); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	if _, err := a.HNSW(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.IVF(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Finger(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hnsw", "ivf", "res", "pca", "opq", "finger"} {
		if a.Timing(key) <= 0 {
			t.Fatalf("timing %q not recorded", key)
		}
	}
}

func TestSweepsProduceMonotoneWork(t *testing.T) {
	a := tinyArtifacts("harness-tiny")
	ds, err := a.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	gt, err := a.GroundTruth(10)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := a.HNSW()
	if err != nil {
		t.Fatal(err)
	}
	dco, err := a.DCO(ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SweepHNSW(idx, dco, ds.Queries, gt, 10, []int{10, 40, 160})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Wider beams do strictly more comparisons and at least as much recall
	// (tiny tolerance for beam-order effects).
	for i := 0; i+1 < len(pts); i++ {
		if pts[i].Stats.Comparisons >= pts[i+1].Stats.Comparisons {
			t.Fatalf("comparisons not increasing: %+v", pts)
		}
		if pts[i].Recall > pts[i+1].Recall+0.05 {
			t.Fatalf("recall collapsed with wider beam: %+v", pts)
		}
	}

	ivfIdx, err := a.IVF()
	if err != nil {
		t.Fatal(err)
	}
	ipts, err := SweepIVF(ivfIdx, dco, ds.Queries, gt, 10, []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(ipts); i++ {
		if ipts[i].Stats.Comparisons >= ipts[i+1].Stats.Comparisons {
			t.Fatalf("ivf comparisons not increasing: %+v", ipts)
		}
	}
}

// TestSweepMatchesFreshEvaluator pins that the pooled sweep — one evaluator
// per curve, Reset per query — returns, at every swept point, the IDs in
// the order and the work counters of idx.SearchEval with a fresh evaluator
// (NewEvaluator + Reset) per query: the paper curves may differ from that
// reference in QPS, never in recall, scan rate or pruned rate.
func TestSweepMatchesFreshEvaluator(t *testing.T) {
	a := tinyArtifacts("harness-tiny")
	ds, err := a.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	gt, err := a.GroundTruth(k)
	if err != nil {
		t.Fatal(err)
	}
	hidx, err := a.HNSW()
	if err != nil {
		t.Fatal(err)
	}
	iidx, err := a.IVF()
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, dco core.DCO, params []int, walk walkFunc,
		fresh func(ev core.ResettableEvaluator, q []float32, param int) ([]heap.Item, error)) {
		t.Helper()
		var got [][]heap.Item // one entry per (param, query), in sweep order
		pts, err := sweep(dco, ds.Queries, gt, k, params,
			func(ev core.ResettableEvaluator, q []float32, param int, dst []heap.Item) ([]heap.Item, error) {
				dst, err := walk(ev, q, param, dst)
				got = append(got, slices.Clone(dst))
				return dst, err
			})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for pi, param := range params {
			var agg core.Stats
			ids := make([][]int, len(ds.Queries))
			for qi, q := range ds.Queries {
				ev := dco.NewEvaluator()
				if err := ev.Reset(q); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := fresh(ev, q, param)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				agg.Add(*ev.Stats())
				if !slices.Equal(got[pi*len(ds.Queries)+qi], want) {
					t.Fatalf("%s param %d query %d: pooled hits %v, fresh evaluator %v",
						label, param, qi, got[pi*len(ds.Queries)+qi], want)
				}
				for _, it := range want {
					ids[qi] = append(ids[qi], it.ID)
				}
			}
			if pts[pi].Stats != agg {
				t.Fatalf("%s param %d: pooled stats %+v, fresh evaluator %+v", label, param, pts[pi].Stats, agg)
			}
			if want := dataset.Recall(ids, gt, k); pts[pi].Recall != want {
				t.Fatalf("%s param %d: pooled recall %v, fresh evaluator %v", label, param, pts[pi].Recall, want)
			}
		}
	}
	for _, mode := range []string{ModeExact, ModeRes, ModeADS} {
		dco, err := a.DCO(mode)
		if err != nil {
			t.Fatal(err)
		}
		check("hnsw-"+mode, dco, []int{10, 40, 160}, hnswWalk(hidx, k, dco.Size()),
			func(ev core.ResettableEvaluator, _ []float32, ef int) ([]heap.Item, error) {
				return hidx.SearchEval(ev, k, ef, dco.Size(), nil)
			})
		check("ivf-"+mode, dco, []int{1, 8, 32}, ivfWalk(iidx, k, dco.Size()),
			func(ev core.ResettableEvaluator, q []float32, nprobe int) ([]heap.Item, error) {
				return iidx.SearchEval(ev, q, k, nprobe, dco.Size(), nil, nil)
			})
	}
}

// TestSetScaleRejectsOutOfRange: a factor outside (0, 1] is an error, not a
// run that silently proceeds at full profile scale.
func TestSetScaleRejectsOutOfRange(t *testing.T) {
	for _, s := range []float64{0, -1, 2, math.NaN()} {
		if err := SetScale(s); err == nil {
			t.Fatalf("SetScale(%v) = nil, want an error", s)
		}
	}
	if scale != 1 {
		t.Fatalf("a rejected factor changed the scale to %v", scale)
	}
	if err := SetScale(1); err != nil {
		t.Fatal(err)
	}
}

func TestRenderCurvesOutput(t *testing.T) {
	var buf bytes.Buffer
	RenderCurves(&buf, "title", "ef", 64, []Curve{
		{Label: "m1", Points: []Point{{Param: 10, Recall: 0.5, QPS: 100}}},
	})
	out := buf.String()
	for _, want := range []string{"== title ==", "m1", "ef", "0.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestQPSAtRecall(t *testing.T) {
	pts := []Point{
		{Recall: 0.8, QPS: 1000},
		{Recall: 0.95, QPS: 400},
		{Recall: 0.99, QPS: 100},
	}
	if got := QPSAtRecall(pts, 0.9); got != 400 {
		t.Fatalf("QPSAtRecall = %v", got)
	}
	if got := QPSAtRecall(pts, 0.999); got != 0 {
		t.Fatalf("unreachable target must give 0, got %v", got)
	}
}

func TestConcurrentArtifactAccess(t *testing.T) {
	Reset()
	defer Reset()
	a := tinyArtifacts("harness-conc")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 4 {
			case 0:
				_, err = a.Dataset()
			case 1:
				_, err = a.GroundTruth(5)
			case 2:
				_, err = a.DCO(ModeRes)
			case 3:
				_, err = a.HNSW()
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
