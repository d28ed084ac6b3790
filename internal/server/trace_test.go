package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"resinfer"
)

// floats renders a query as a JSON array body fragment.
func floats(q []float32) string {
	parts := make([]string, len(q))
	for i, v := range q {
		parts[i] = strconv.FormatFloat(float64(v), 'g', -1, 32)
	}
	return strings.Join(parts, ",")
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func logNew(w *syncBuffer) *log.Logger { return log.New(w, "", 0) }

func tracedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, [][]float32) {
	t.Helper()
	ds, _ := testFixtures(t)
	sx, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sx, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, ds.Queries
}

func stageNames(tj *traceJSON) []string {
	names := make([]string, len(tj.Stages))
	for i, st := range tj.Stages {
		names[i] = st.Name
	}
	return names
}

func hasStage(tj *traceJSON, name string) bool {
	for _, st := range tj.Stages {
		if st.Name == name {
			return true
		}
	}
	return false
}

// TestTracedRequestBodyFlag drives a traced request through the full
// micro-batching pipeline and checks the returned timeline: the
// expected stages are present, the per-shard breakdown covers every
// shard, and the stage sum lands close to the end-to-end total.
func TestTracedRequestBodyFlag(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{})

	var out searchResponse
	resp := postJSON(t, ts.URL+"/search",
		searchRequest{Query: queries[0], K: 5, Trace: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Trace == nil {
		t.Fatal("no trace in response")
	}
	tj := out.Trace
	for _, want := range []string{"decode", "queue_wait", "fanout", "merge", "encode"} {
		if !hasStage(tj, want) {
			t.Errorf("missing stage %q in %v", want, stageNames(tj))
		}
	}
	if len(tj.Shards) != 4 {
		t.Errorf("shard breakdown has %d entries, want 4", len(tj.Shards))
	}
	if tj.BatchSize < 1 {
		t.Errorf("batch size = %d, want >= 1", tj.BatchSize)
	}
	if tj.TotalUs <= 0 {
		t.Fatalf("total = %dus", tj.TotalUs)
	}
	// The recorded stages cover the pipeline: their sum reaches a large
	// fraction of the end-to-end total. (The bound is loose — scheduling
	// gaps between stages are real time the sum legitimately misses.)
	var sum int64
	for _, st := range tj.Stages {
		sum += st.DurUs
	}
	if sum <= 0 {
		t.Fatalf("stage durations sum to 0: %+v", tj.Stages)
	}
	if sum < tj.TotalUs/2 {
		t.Errorf("stage sum %dus < half of total %dus: %v", sum, tj.TotalUs, stageNames(tj))
	}
	// Comparisons surfaced per shard must sum to the query's stats.
	var cmp int64
	for _, sh := range tj.Shards {
		cmp += sh.Comparisons
	}
	if cmp != out.Stats.Comparisons {
		t.Errorf("shard comparisons %d != stats %d", cmp, out.Stats.Comparisons)
	}
}

// TestTracedRequestHeader asks via the X-Resinfer-Trace header.
func TestTracedRequestHeader(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{})

	body := strings.NewReader(`{"query":[` + floats(queries[0]) + `],"k":5}`)
	req, err := http.NewRequest("POST", ts.URL+"/search", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Resinfer-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out searchResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Trace == nil {
		t.Fatal("no trace in response")
	}
	for _, want := range []string{"decode", "queue_wait", "fanout", "merge", "encode"} {
		if !hasStage(out.Trace, want) {
			t.Errorf("missing stage %q in %v", want, stageNames(out.Trace))
		}
	}
	if len(out.Trace.Shards) != 4 {
		t.Errorf("shard breakdown has %d entries, want 4", len(out.Trace.Shards))
	}
}

// TestUntracedRequestHasNoTrace: without the opt-in, no trace field.
func TestUntracedRequestHasNoTrace(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{})
	var out searchResponse
	postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5}, &out)
	if out.Trace != nil {
		t.Fatal("trace returned without opt-in")
	}
}

// TestSlowlogCapturesSlowRequests arms a 1ns threshold so every request
// is "slow", then checks the ring's contents and the worst offender's
// shard breakdown.
func TestSlowlogCapturesSlowRequests(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{SlowLogThreshold: time.Nanosecond})

	for i := 0; i < 5; i++ {
		var out searchResponse
		postJSON(t, ts.URL+"/search", searchRequest{Query: queries[i], K: 5, Budget: 50, Mode: "exact"}, &out)
	}

	var sl slowLogResponse
	getJSON(t, ts.URL+"/debug/slowlog", &sl)
	if sl.Total != 5 || len(sl.Entries) != 5 {
		t.Fatalf("slowlog total=%d entries=%d, want 5/5", sl.Total, len(sl.Entries))
	}
	e := sl.Entries[0]
	if e.Path != "/search" || e.Mode != "exact" || e.K != 5 || e.Budget != 50 || e.Dim != len(queries[0]) {
		t.Fatalf("entry = %+v", e)
	}
	if e.DurationUs <= 0 || len(e.Stages) == 0 {
		t.Fatalf("entry missing timings: %+v", e)
	}
	if sl.Worst == nil {
		t.Fatal("no worst offender")
	}
	if len(sl.Worst.Shards) != 4 {
		t.Fatalf("worst offender shard breakdown has %d entries, want 4", len(sl.Worst.Shards))
	}
	for _, entry := range sl.Entries {
		if entry.DurationUs > sl.Worst.DurationUs {
			t.Fatalf("entry %dus slower than worst %dus", entry.DurationUs, sl.Worst.DurationUs)
		}
	}
}

// TestSlowlogDisabled: a negative threshold removes the endpoint.
func TestSlowlogDisabled(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{SlowLogThreshold: -1})
	var out searchResponse
	postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5}, &out)
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("slowlog status %d, want 404", resp.StatusCode)
	}
}

// TestAccessLog checks the one-line-per-request format: method, path,
// status, latency, batch size and remote address.
func TestAccessLog(t *testing.T) {
	srv, _, queries := tracedServer(t, Config{AccessLog: true})
	var buf syncBuffer
	srv.access = logNew(&buf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out searchResponse
	postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5}, &out)
	var bout batchSearchResponse
	postJSON(t, ts.URL+"/search/batch", batchSearchRequest{Queries: queries[:3], K: 5}, &bout)
	postJSON(t, ts.URL+"/search", searchRequest{}, nil) // 400

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d access-log lines, want 3:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{"method=POST", "path=/search", "status=200", "batch=1", "dur_ms=", "remote=", "ts="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line 1 missing %q: %s", want, lines[0])
		}
	}
	if !strings.Contains(lines[1], "path=/search/batch") || !strings.Contains(lines[1], "batch=3") {
		t.Errorf("batch line wrong: %s", lines[1])
	}
	if !strings.Contains(lines[2], "status=400") {
		t.Errorf("error line wrong: %s", lines[2])
	}
}

// TestAccessLogOffByDefault: the default handler is the bare mux.
func TestAccessLogOffByDefault(t *testing.T) {
	srv, _, _ := tracedServer(t, Config{})
	if srv.access != nil {
		t.Fatal("access logger armed without opt-in")
	}
}

// TestPprofGate: /debug/pprof/ exists only behind the flag.
func TestPprofGate(t *testing.T) {
	_, tsOff, _ := tracedServer(t, Config{})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without opt-in")
	}

	_, tsOn, _ := tracedServer(t, Config{EnablePprof: true})
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}
