package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/dataset"
	"resinfer/internal/fault"
)

func testFixtures(t *testing.T) (*dataset.Dataset, [][]int) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name: "server-test", N: 2000, Dim: 32, Queries: 40,
		VE32: 0.7, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dataset.BruteForceKNN(ds.Data, ds.Queries, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func postJSON(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// The acceptance test of the serving subsystem: a loopback server over a
// sharded index answers concurrent single and batch searches, and its
// recall@10 is at least the unsharded index's recall on the same data
// (the shard merge is lossless for exact mode, so both are 1.0 here).
func TestServerShardedRecall(t *testing.T) {
	ds, gt := testFixtures(t)

	unsharded, err := resinfer.New(ds.Data, resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := resinfer.NewSharded(ds.Data, resinfer.Flat, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: unsharded exact recall, computed library-side.
	baseResults := make([][]int, len(ds.Queries))
	for qi, q := range ds.Queries {
		ns, err := unsharded.Search(q, 10, resinfer.Exact, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			baseResults[qi] = append(baseResults[qi], n.ID)
		}
	}
	baseRecall := dataset.Recall(baseResults, gt, 10)

	srv := New(sharded, Config{BatchMaxSize: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Concurrent single searches over the micro-batching path.
	results := make([][]int, len(ds.Queries))
	var wg sync.WaitGroup
	errCh := make(chan error, len(ds.Queries))
	for qi := range ds.Queries {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			var out searchResponse
			resp := postJSON(t, ts.URL+"/search",
				searchRequest{Query: ds.Queries[qi], K: 10, Mode: "exact", Budget: 1},
				&out)
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("query %d: status %d", qi, resp.StatusCode)
				return
			}
			for _, n := range out.Neighbors {
				results[qi] = append(results[qi], n.ID)
			}
		}(qi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	recall := dataset.Recall(results, gt, 10)
	if recall < baseRecall {
		t.Fatalf("sharded serving recall %v < unsharded %v", recall, baseRecall)
	}
	if recall < 1.0 {
		t.Fatalf("exact sharded recall = %v, want lossless 1.0", recall)
	}

	// Batch endpoint returns the same answers, BatchMaxSize queries a
	// request.
	batchResults := make([][]int, len(ds.Queries))
	batches := 0
	for lo := 0; lo < len(ds.Queries); lo += srv.cfg.BatchMaxSize {
		hi := min(lo+srv.cfg.BatchMaxSize, len(ds.Queries))
		var bout batchSearchResponse
		resp := postJSON(t, ts.URL+"/search/batch",
			batchSearchRequest{Queries: ds.Queries[lo:hi], K: 10, Mode: "exact", Budget: 1},
			&bout)
		batches++
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
		if len(bout.Results) != hi-lo {
			t.Fatalf("batch returned %d results, want %d", len(bout.Results), hi-lo)
		}
		for i, entry := range bout.Results {
			if entry.Error != "" {
				t.Fatalf("batch entry %d: %s", lo+i, entry.Error)
			}
			for _, n := range entry.Neighbors {
				batchResults[lo+i] = append(batchResults[lo+i], n.ID)
			}
		}
	}
	if r := dataset.Recall(batchResults, gt, 10); r < baseRecall {
		t.Fatalf("batch recall %v < unsharded %v", r, baseRecall)
	}

	// Counters moved and the micro-batcher actually batched.
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	wantQueries := int64(2 * len(ds.Queries))
	if stats.Queries != wantQueries {
		t.Fatalf("stats.queries = %d, want %d", stats.Queries, wantQueries)
	}
	if stats.Requests != int64(len(ds.Queries)+batches) {
		t.Fatalf("stats.requests = %d", stats.Requests)
	}
	if stats.Comparisons == 0 {
		t.Fatal("stats.comparisons should be non-zero")
	}
	if stats.Batches == 0 || stats.BatchedQueries != int64(len(ds.Queries)) {
		t.Fatalf("micro-batcher did not run: batches=%d batched=%d", stats.Batches, stats.BatchedQueries)
	}
	if stats.LatencyP99Ms <= 0 || stats.LatencyP50Ms > stats.LatencyP99Ms {
		t.Fatalf("implausible latency quantiles: p50=%v p99=%v", stats.LatencyP50Ms, stats.LatencyP99Ms)
	}
	if stats.SIMDLevel != resinfer.SIMDLevel() || stats.SIMDLevel == "" {
		t.Fatalf("stats.simd_level = %q, want %q", stats.SIMDLevel, resinfer.SIMDLevel())
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestServerHealthz(t *testing.T) {
	ds, _ := testFixtures(t)
	// InnerProduct augments vectors internally (dim 33), but /healthz
	// must report the dimensionality clients send queries in (32).
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat,
		&resinfer.Options{Metric: resinfer.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(resinfer.SingleShard(ix), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Points != 200 || h.Dim != 32 {
		t.Fatalf("healthz = %+v", h)
	}
	if len(h.Modes) == 0 {
		t.Fatal("healthz should list enabled modes")
	}

	// A query sized from /healthz must be accepted.
	var out searchResponse
	resp := postJSON(t, ts.URL+"/search",
		searchRequest{Query: ds.Queries[0][:h.Dim], K: 3}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz-sized query rejected: status %d", resp.StatusCode)
	}
}

func TestServerBadRequests(t *testing.T) {
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(resinfer.SingleShard(ix), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"empty query", "/search", searchRequest{}},
		{"bad mode", "/search", searchRequest{Query: ds.Queries[0], Mode: "cosine-walk"}},
		{"bad dim", "/search", searchRequest{Query: []float32{1, 2}}},
		{"mode not enabled", "/search", searchRequest{Query: ds.Queries[0], Mode: "ddc-res"}},
		{"empty batch", "/search/batch", batchSearchRequest{}},
		{"batch bad dim", "/search/batch", batchSearchRequest{Queries: [][]float32{{1}}}},
	}
	for _, tc := range cases {
		var out errorResponse
		resp := postJSON(t, ts.URL+tc.url, tc.body, &out)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: expected failure, got 200", tc.name)
		}
		if out.Error == "" {
			t.Fatalf("%s: missing error message", tc.name)
		}
	}
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Errors != int64(len(cases)) {
		t.Fatalf("stats.errors = %d, want %d", stats.Errors, len(cases))
	}
}

// waitQueued polls until depth queries are admitted (executing or
// waiting) and all but inChan of them have left the queue channel.
func waitQueued(t *testing.T, srv *Server, depth int64, inChan int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.queueDepth.Load() != depth || len(srv.batcher.in) != inChan {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue never reached depth %d with %d waiting in the channel (depth %d, channel %d)",
				depth, inChan, srv.metrics.queueDepth.Load(), len(srv.batcher.in))
		}
		time.Sleep(time.Millisecond)
	}
}

// A malformed query from one client must not poison a batch containing
// other clients' valid queries: the handler rejects it before admission.
func TestServerBadQueryDoesNotPoisonBatch(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:300], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(resinfer.SingleShard(ix), Config{MaxConcurrent: 1, BatchMaxSize: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One valid query holds the only slot and a second waits for it; the
	// bad one would join the second's batch if it were admitted.
	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 50 * time.Millisecond})()
	goodDone := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			var out searchResponse
			resp := postJSON(t, ts.URL+"/search", searchRequest{Query: ds.Queries[i], K: 5}, &out)
			goodDone <- resp.StatusCode
		}(i)
	}
	waitQueued(t, srv, 2, 0)
	var eout errorResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: []float32{1, 2, 3}, K: 5}, &eout)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dim query: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if code := <-goodDone; code != http.StatusOK {
			t.Fatalf("valid query failed alongside a malformed one: status %d", code)
		}
	}
}

// TestServerCloseFailsQueued: Close fails the query the collector holds
// while it waits for a slot and the one behind it in the queue, and lets
// the one executing finish.
func TestServerCloseFailsQueued(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:200], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(resinfer.SingleShard(ix), Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 400 * time.Millisecond})()
	type reply struct {
		code int
		err  string
	}
	post := func(done chan<- reply) {
		var out errorResponse // Error stays empty on a 200 body
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: ds.Queries[0]}, &out)
		done <- reply{resp.StatusCode, out.Error}
	}
	running := make(chan reply, 1)
	go post(running)
	waitQueued(t, srv, 1, 0)
	waiting := make(chan reply, 2)
	go post(waiting)
	waitQueued(t, srv, 2, 0) // the collector holds it, waiting for the slot
	go post(waiting)
	waitQueued(t, srv, 3, 1)

	srv.Close()
	for i := 0; i < 2; i++ {
		select {
		case r := <-waiting:
			if r.code != http.StatusServiceUnavailable || r.err != ErrServerClosed.Error() {
				t.Fatalf("queued query: status %d error %q, want 503 %q", r.code, r.err, ErrServerClosed)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query hung after Close")
		}
	}
	if r := <-running; r.code != http.StatusOK {
		t.Fatalf("executing query: status %d, want 200", r.code)
	}
}

// TestIdleServerRunsQueryAtOnce: with a slot free nothing waits — each
// query runs alone, and its queue_wait stage is a goroutine hand-off, not
// a collection window.
func TestIdleServerRunsQueryAtOnce(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{})
	waits := make([]int64, 20)
	for i := range waits {
		var out searchResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: queries[i], K: 5, Trace: true}, &out)
		if resp.StatusCode != http.StatusOK || out.Trace == nil {
			t.Fatalf("request %d: status %d, trace %v", i, resp.StatusCode, out.Trace)
		}
		if out.Trace.BatchSize != 1 {
			t.Fatalf("request %d: batch size %d on an idle server, want 1", i, out.Trace.BatchSize)
		}
		for _, st := range out.Trace.Stages {
			if st.Name == "queue_wait" {
				waits[i] = st.DurUs
			}
		}
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if med := waits[len(waits)/2]; med >= 1000 {
		t.Fatalf("median queue_wait %dus on an idle server, want < 1000us (all: %v)", med, waits)
	}
}

// TestBatchFormsBehindBusySlot: queries arriving while every slot is busy
// share one execution when a slot frees.
func TestBatchFormsBehindBusySlot(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	srv, ts, queries := tracedServer(t, Config{MaxConcurrent: 1})
	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: fault.AnyArg, Delay: 100 * time.Millisecond})()

	const n = 6
	sizes := make(chan int, n+1)
	post := func(i int) {
		var out searchResponse
		resp := postJSON(t, ts.URL+"/search", searchRequest{Query: queries[i], K: 5, Trace: true}, &out)
		if resp.StatusCode != http.StatusOK || out.Trace == nil {
			t.Errorf("request %d: status %d, trace %v", i, resp.StatusCode, out.Trace)
			sizes <- 0
			return
		}
		sizes <- out.Trace.BatchSize
	}
	go post(0)
	waitQueued(t, srv, 1, 0) // it holds the only slot
	for i := 1; i <= n; i++ {
		go post(i)
	}
	largest := 0
	for i := 0; i <= n; i++ {
		if sz := <-sizes; sz > largest {
			largest = sz
		}
	}
	if largest < 2 {
		t.Fatalf("largest batch %d with %d queries behind a busy slot, want > 1", largest, n)
	}
	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.AvgBatchSize <= 1 {
		t.Fatalf("avg_batch_size %v (batches %d, queries %d), want > 1", stats.AvgBatchSize, stats.Batches, stats.BatchedQueries)
	}
}

// TestExpiredQueuedQueryNotSearched: a query whose deadline passed while
// it waited for a slot is answered from the queue, not scanned for nobody
// alongside the live query it shares a batch with.
func TestExpiredQueuedQueryNotSearched(t *testing.T) {
	srv, ts, queries := tracedServer(t, Config{MaxConcurrent: 1, RequestTimeout: 100 * time.Millisecond})
	srv.sem <- struct{}{} // hold the only slot past the deadline
	var eout errorResponse
	resp := postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5}, &eout)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query queued past its deadline: status %d, want 503", resp.StatusCode)
	}
	live := make(chan int, 1)
	go func() {
		var out searchResponse
		live <- postJSON(t, ts.URL+"/search", searchRequest{Query: queries[1], K: 5}, &out).StatusCode
	}()
	waitQueued(t, srv, 2, 1) // the collector holds the expired one, the live one is behind it
	<-srv.sem

	if code := <-live; code != http.StatusOK {
		t.Fatalf("live query: status %d, want 200", code)
	}
	for sh, h := range srv.shardDur {
		if h.Count() != 1 {
			t.Fatalf("shard %d observed %d probes, want 1: the expired query was searched", sh, h.Count())
		}
	}
	if st := srv.Stats(); st.Timeouts != 1 || st.BatchedQueries != 1 {
		t.Fatalf("timeouts %d, batched queries %d, want 1 and 1", st.Timeouts, st.BatchedQueries)
	}
}

// The server requires Engine outright and checks for Mutator once; both
// index types the library ships must keep satisfying them.
var (
	_ Engine  = (*resinfer.ShardedIndex)(nil)
	_ Engine  = (*resinfer.MutableIndex)(nil)
	_ Mutator = (*resinfer.MutableIndex)(nil)
)

// TestSingleIndexServedAsOneShard: a single Index is served through the
// same engine as any sharded one, so it gets what the unsharded path
// never had — shard coverage in stats, a request deadline that a stuck
// probe cannot outlive (503, counted as a timeout), and /debug/quality.
func TestSingleIndexServedAsOneShard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	ds, _ := testFixtures(t)
	ix, err := resinfer.New(ds.Data[:300], resinfer.Flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(resinfer.SingleShard(ix), Config{
		RequestTimeout:    150 * time.Millisecond,
		QualitySampleRate: 1,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := searchRequest{Query: ds.Queries[0], K: 5, Mode: "exact"}
	var out searchResponse
	if resp := postJSON(t, ts.URL+"/search", req, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d, want 200", resp.StatusCode)
	}
	if out.Stats.ShardsOK != 1 || out.Stats.ShardsFailed != 0 || out.Partial {
		t.Fatalf("coverage %+v partial=%v, want 1 shard ok", out.Stats, out.Partial)
	}
	if snap := waitQualityMeasured(t, ts.URL, 1); snap.RecallMean < 0.999 || len(snap.PerShard) != 1 {
		t.Fatalf("quality: recall %v over %d shards, want 1.0 over 1", snap.RecallMean, len(snap.PerShard))
	}

	defer fault.Inject(fault.Injection{Site: fault.SiteShardSearch, Arg: 0, Delay: 2 * time.Second})()
	start := time.Now()
	var eout errorResponse
	resp := postJSON(t, ts.URL+"/search", req, &eout)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stuck shard: status %d, want 503", resp.StatusCode)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("stuck shard held the request %v past its 150ms deadline", el)
	}
	if st := srv.Stats(); st.Timeouts < 1 {
		t.Fatalf("timeouts counter %d, want >= 1", st.Timeouts)
	}
}
