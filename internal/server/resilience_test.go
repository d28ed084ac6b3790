package server

// Fault-tolerant-serving tests: overload shedding (429 + Retry-After),
// partial results under a deadline, require_full opt-out, client-cancel
// accounting, degraded read-only mode behind /readyz and
// /admin/degraded/clear, and the graceful-drain WAL flush.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/fault"
)

// buildResilienceSharded builds a small sharded index for fan-out tests.
func buildResilienceSharded(t *testing.T, nShards int) *resinfer.ShardedIndex {
	t.Helper()
	ds, _ := testFixtures(t)
	sx, err := resinfer.NewSharded(ds.Data, resinfer.Flat, nShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// buildResilienceMutable builds a small WAL-backed mutable index.
func buildResilienceMutable(t *testing.T, walDir string) *resinfer.MutableIndex {
	t.Helper()
	ds, _ := testFixtures(t)
	mx, err := resinfer.NewMutable(ds.Data, resinfer.Flat, 2, &resinfer.MutableOptions{
		WALDir:             walDir,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

func testQuery(t *testing.T) []float32 {
	t.Helper()
	ds, _ := testFixtures(t)
	return ds.Queries[0]
}

// TestOverloadShed429: a query arriving past the admission watermark is
// shed immediately with 429 and a Retry-After hint, while the admitted
// query still answers — shedding protects goodput, it does not replace
// it.
func TestOverloadShed429(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildResilienceSharded(t, 2)
	srv := New(sx, Config{
		MaxConcurrent: 1,
		MaxQueueDepth: 1,
		RetryAfter:    2 * time.Second,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := testQuery(t)

	// The first query holds the only slot, and with it the whole watermark.
	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 300 * time.Millisecond})()
	firstDone := make(chan int, 1)
	go func() {
		var out searchResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: q, K: 5, Mode: "exact"}, &out)
		firstDone <- resp.StatusCode
	}()

	waitQueued(t, srv, 1, 0) // queue depth 1 = watermark

	var out errorResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: q, K: 5, Mode: "exact"}, &out)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	if st := srv.Stats(); st.Shed < 1 {
		t.Fatalf("shed counter %d, want >= 1", st.Shed)
	}
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("admitted query: status %d, want 200", code)
	}
}

// TestPartialResultAndRequireFull: with one shard stuck past the request
// deadline the response arrives partial (200, partial=true, coverage in
// stats) — unless the client set require_full, which turns the same
// situation into a 503.
func TestPartialResultAndRequireFull(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildResilienceSharded(t, 4)
	srv := New(sx, Config{RequestTimeout: 150 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := testQuery(t)

	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: 1, Delay: 2 * time.Second})()

	var out searchResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: q, K: 5, Mode: "exact"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial search: status %d, want 200", resp.StatusCode)
	}
	if !out.Partial {
		t.Fatal("response must be marked partial")
	}
	if out.Stats.ShardsOK != 3 || out.Stats.ShardsFailed != 1 {
		t.Fatalf("shard coverage: %+v, want 3 ok / 1 failed", out.Stats)
	}
	if len(out.Neighbors) != 5 {
		t.Fatalf("partial result carries %d neighbors, want 5", len(out.Neighbors))
	}
	if st := srv.Stats(); st.PartialResults < 1 {
		t.Fatalf("partials counter %d, want >= 1", st.PartialResults)
	}

	var errOut errorResponse
	resp = postJSON(t, ts.URL+"/search",
		searchRequest{Query: q, K: 5, Mode: "exact", RequireFull: true}, &errOut)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("require_full on partial: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(errOut.Error, "require_full") {
		t.Fatalf("error %q should name require_full", errOut.Error)
	}
	if st := srv.Stats(); st.Timeouts < 1 {
		t.Fatalf("timeouts counter %d, want >= 1", st.Timeouts)
	}
}

// TestBatchEndpointPartial: the batch endpoint marks per-entry partial
// coverage the same way.
func TestBatchEndpointPartial(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildResilienceSharded(t, 4)
	srv := New(sx, Config{RequestTimeout: 150 * time.Millisecond, SearchWorkers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ds, _ := testFixtures(t)

	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: 2, Delay: 2 * time.Second})()

	var bout batchSearchResponse
	resp := postJSON(t, ts.URL+"/search/batch",
		batchSearchRequest{Queries: ds.Queries[:4], K: 5, Mode: "exact"}, &bout)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, want 200", resp.StatusCode)
	}
	for i, entry := range bout.Results {
		if entry.Error != "" {
			t.Fatalf("entry %d errored: %s", i, entry.Error)
		}
		if !entry.Partial {
			t.Fatalf("entry %d not marked partial", i)
		}
		if entry.Stats.ShardsFailed != 1 {
			t.Fatalf("entry %d coverage %+v, want 1 failed shard", i, entry.Stats)
		}
	}
}

// TestClientCancelCounted: a request the client abandons mid-flight is
// counted as a client cancel, not a server error.
func TestClientCancelCounted(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sx := buildResilienceSharded(t, 2)
	srv := New(sx, Config{RequestTimeout: 5 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := testQuery(t)

	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: time.Second})()

	body := `{"query":` + floatsJSON(q) + `,"k":5,"mode":"exact"}`
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("expected the client-side deadline to abort the request, got status %d", resp.StatusCode)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client error: %v", err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		st := srv.Stats()
		if st.ClientCancels >= 1 {
			if st.Errors != 0 {
				t.Fatalf("client cancel inflated the error counter: %d", st.Errors)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client cancel never counted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDegradedServing is the degraded-mode acceptance test: a persistent
// injected fsync failure flips /readyz to 503 and mutations to 503
// while searches keep returning 200; POST /admin/degraded/clear re-arms
// writes once the fault is gone.
func TestDegradedServing(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	mx := buildResilienceMutable(t, t.TempDir())
	defer mx.Close()
	srv := New(mx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := testQuery(t)
	vec := make([]float32, len(q))
	copy(vec, q)

	// Healthy: ready, and writes work.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz healthy: status %d, want 200", resp.StatusCode)
	}
	var up upsertResponse
	if resp := postJSON(t, ts.URL+"/upsert", upsertRequest{Vector: vec}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy upsert: status %d", resp.StatusCode)
	}

	// Persistent fsync failure: mutations 503, readyz 503, searches 200.
	disarm := fault.Inject(fault.Injection{Site: fault.SiteWALFsync, Err: errors.New("disk gone")})
	var errOut errorResponse
	if resp := postJSON(t, ts.URL+"/upsert", upsertRequest{Vector: vec}, &errOut); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded upsert: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(errOut.Error, "degraded") {
		t.Fatalf("degraded upsert error %q should say degraded", errOut.Error)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	decodeBody(t, resp, &ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != "degraded" {
		t.Fatalf("readyz degraded: status %d body %+v, want 503/degraded", resp.StatusCode, ready)
	}
	var out searchResponse
	if resp := postJSON(t, ts.URL+"/search", searchRequest{Query: q, K: 5, Mode: "exact"}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("search while degraded: status %d, want 200", resp.StatusCode)
	}
	if st := srv.Stats(); st.DegradedRejects < 1 {
		t.Fatalf("degraded_rejects %d, want >= 1", st.DegradedRejects)
	}

	// Clearing while the fault persists re-degrades on the next write;
	// after the fault is gone, clear restores service.
	disarm()
	resp, err = http.Post(ts.URL+"/admin/degraded/clear", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded clear: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after clear: status %d, want 200", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/upsert", upsertRequest{Vector: vec}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert after clear: status %d, want 200", resp.StatusCode)
	}
}

// TestDrainFlushesDurability: a graceful shutdown syncs the WAL and
// writes a checkpoint, so a clean stop leaves nothing to replay.
func TestDrainFlushesDurability(t *testing.T) {
	walDir := t.TempDir()
	mx := buildResilienceMutable(t, walDir)
	defer mx.Close()
	srv := New(mx, Config{DrainTimeout: 2 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	bound := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- srv.Serve(ctx, "127.0.0.1:0", func(addr string) { bound <- addr })
	}()
	addr := <-bound
	q := testQuery(t)
	vec := make([]float32, len(q))
	copy(vec, q)
	var up upsertResponse
	if resp := postJSON(t, "http://"+addr+"/upsert", upsertRequest{Vector: vec}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert: status %d", resp.StatusCode)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if _, err := os.Stat(filepath.Join(walDir, "checkpoint.strm")); err != nil {
		t.Fatalf("graceful drain must leave a checkpoint snapshot: %v", err)
	}
}

// floatsJSON renders a []float32 as a JSON array (for hand-built bodies).
func floatsJSON(v []float32) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconvFormat(x))
	}
	b.WriteByte(']')
	return b.String()
}

func strconvFormat(x float32) string {
	return strconv.FormatFloat(float64(x), 'g', -1, 32)
}
