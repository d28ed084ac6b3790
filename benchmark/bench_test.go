package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/core"
	"resinfer/internal/dataset"
	"resinfer/internal/ddc"
	"resinfer/internal/hnsw"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(smokeParams(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkMetrics fails unless got holds exactly the listed metrics, with
// the listed units, every value finite.
func checkMetrics(t *testing.T, got metricSet, want []metricSpec) {
	t.Helper()
	for _, spec := range want {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is listed in BENCHMARK.json but was not emitted", spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", spec.Name, m.Unit, spec.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", spec.Name, m.Value)
		}
		if !metricName.MatchString(spec.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", spec.Name)
		}
	}
	if len(got) != len(want) {
		listed := make(map[string]bool)
		for _, spec := range want {
			listed[spec.Name] = true
		}
		for name := range got {
			if !listed[name] {
				t.Errorf("metric %s was emitted but is not listed in BENCHMARK.json", name)
			}
		}
	}
}

// Every workload, untraced and traced, must emit exactly the metrics
// BENCHMARK.json lists, and BENCHMARK.json must list exactly the
// workloads the benchmark has.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	e := smokeEnv(t)
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json and %s in the benchmark", i, bf.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(e, w, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			checkMetrics(t, res.Metrics, bf.EndToEnd)
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			res, err := runTraced(e, w, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			checkMetrics(t, res.Metrics, bf.PerLayer)
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// brokenFixture answers every search with an error, as a server does
// when the generator posts a body it does not understand.
type brokenFixture struct{}

func (brokenFixture) drive(warm, dur time.Duration, _ *recorder) phase {
	start := time.Now()
	s := closedLoop(func(i int) bool { return i < 100 }, func(int) error { return errors.New("HTTP 400: empty query") })
	return phase{searches: s, from: start, end: time.Now()}
}
func (brokenFixture) recall() (float64, error) { return 1, nil }
func (brokenFixture) close() error             { return nil }

// A run whose operations fail must not report latencies: 100 fast 400s
// are not a measurement.
func TestFailingOperationsAreNotMeasured(t *testing.T) {
	e := smokeEnv(t)
	res := newResult(e, workloads[0], false)
	if err := measure(e, workloads[0], brokenFixture{}, time.Second, res); err == nil {
		t.Fatalf("measure accepted a run in which %d of %d operations failed", res.Failed, res.Attempted)
	}
}

// The server must refuse a malformed request and the generator must see
// that as a failure, not as a fast reply.
func TestPostRejectsMalformedRequest(t *testing.T) {
	e := smokeEnv(t)
	f, err := setupServe(e)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if _, _, err := f.post(0, 0, false); err != nil {
		t.Fatalf("well-formed request: %v", err)
	}
	f.bodies[0] = []byte(`{"vector":[1,2,3],"k":10}`)
	if _, _, err := f.post(0, 0, false); err == nil {
		t.Fatal("post accepted the reply to a request with no query")
	}
}

func TestCheckNeighbors(t *testing.T) {
	ok := []resinfer.Neighbor{{ID: 3, Distance: 1}, {ID: 0, Distance: 1}, {ID: 9, Distance: 2.5}}
	if err := checkNeighbors(ok, 3, 10); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	for name, bad := range map[string][]resinfer.Neighbor{
		"too few":      ok[:2],
		"descending":   {{ID: 1, Distance: 2}, {ID: 2, Distance: 1}, {ID: 3, Distance: 3}},
		"out of range": {{ID: 1, Distance: 1}, {ID: 10, Distance: 2}, {ID: 3, Distance: 3}},
		"negative ID":  {{ID: -1, Distance: 1}, {ID: 2, Distance: 2}, {ID: 3, Distance: 3}},
	} {
		if checkNeighbors(bad, 3, 10) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
}

// An open loop times each request from when it was due: a 100 ms stall
// in one reply delays the requests queued behind it, and their latencies
// must show the wait even though the server answered each in no time.
func TestOpenLoopCountsTheWaitBehindAStall(t *testing.T) {
	const stalled, interval = 5, 10 * time.Millisecond
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == stalled+1 {
			time.Sleep(100 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	samples := openLoop(time.Now(), interval, 20, 1, func(_, _ int) error {
		resp, err := client.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return err
	})
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	if lat := samples[stalled].latency(); lat < 100*time.Millisecond {
		t.Errorf("stalled request took %v from its due time, want at least 100ms", lat)
	}
	next := samples[stalled+1]
	if service := next.done.Sub(next.sent); service > 50*time.Millisecond {
		t.Fatalf("request after the stall was itself slow (%v); the test cannot tell waiting from service", service)
	}
	if lat := next.latency(); lat < 70*time.Millisecond {
		t.Errorf("request due 10ms into a 100ms stall reports %v, want the ~90ms it waited", lat)
	}
	if last := samples[len(samples)-1].latency(); last > 50*time.Millisecond {
		t.Errorf("last request still reports %v: the backlog never drained", last)
	}
}

// A search through the timed evaluator must return bit for bit what the
// bare evaluator returns, with the same work counters.
func TestTimedEvaluatorIsTransparent(t *testing.T) {
	e := smokeEnv(t)
	mat := (&dataset.Dataset{Data: e.base}).Matrix()
	hn, err := hnsw.Build(mat, hnsw.Config{M: e.p.M, EfConstruction: e.p.EfConstruction, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddc.NewRes(mat, ddc.ResConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.NewExact(mat)
	if err != nil {
		t.Fatal(err)
	}
	for _, dco := range []core.PooledDCO{exact, res} {
		bare := dco.NewEvaluator()
		timed := &timedEvaluator{inner: dco.NewEvaluator(), bias: 20}
		for qi, q := range e.queries {
			if err := errors.Join(bare.Reset(q), timed.Reset(q)); err != nil {
				t.Fatal(err)
			}
			want, err1 := hn.SearchEval(bare, e.p.K, e.p.EfLib, e.p.N, nil)
			got, err2 := hn.SearchEval(timed, e.p.K, e.p.EfLib, e.p.N, nil)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d hits through the timed evaluator, %d bare", dco.Name(), qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
					t.Fatalf("%s query %d hit %d: timed %v, bare %v", dco.Name(), qi, i, got[i], want[i])
				}
			}
			if *timed.Stats() != *bare.Stats() {
				t.Fatalf("%s query %d: work counters differ: timed %+v, bare %+v", dco.Name(), qi, *timed.Stats(), *bare.Stats())
			}
		}
	}
}

// Self time subtracts what children cover; when children overlap, the
// stretch they cover is split between them so that a request's blocking
// times add up to its latency.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 30, End: 80, Parent: 0},
		{Name: "leaf", Start: 35, End: 45, Parent: 2},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"root": {busy: 30, blocking: 30},
		"a":    {busy: 50, blocking: 35},
		"b":    {busy: 40, blocking: 28},
		"leaf": {busy: 10, blocking: 7},
	}
	var total float64
	for name, w := range want {
		g := got[name]
		if math.Abs(g.busy-w.busy) > 1e-9 || math.Abs(g.blocking-w.blocking) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
		total += g.blocking
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("blocking times add up to %v, want the root's 100", total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartiles(v), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5] on the sorted pair
	if got, want := quartiles([]float64{1, 3}), [3]float64{0.5, 2, 3.5}; got != want {
		t.Errorf("quartiles(1,3) = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{99, 100, 100, 101}
	for _, c := range []struct {
		name   string
		spec   metricSpec
		base   []float64
		change []float64
		want   string
	}{
		{"same", lower, steady, steady, "within"},
		{"slower", lower, steady, []float64{120, 121}, "worse"},
		{"faster", lower, steady, []float64{80}, "better"},
		{"fewer per second", higher, steady, []float64{85}, "worse"},
		{"more per second", higher, steady, []float64{115}, "better"},
		{"inside the bound", higher, steady, []float64{95}, "within"},
		{"base too noisy to tell", lower, []float64{80, 95, 105, 130}, []float64{140}, "unresolved"},
		{"no change runs", lower, steady, nil, "missing"},
	} {
		sort.Float64s(c.base)
		sort.Float64s(c.change)
		if got, detail := verdict(c.spec, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s (%s)", c.name, got, c.want, detail)
		}
	}
}
