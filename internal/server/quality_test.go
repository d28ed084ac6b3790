package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/quality"
)

// qualityServer builds a sharded test server with shadow sampling on
// (rate 1: every query is shadowed).
func qualityServer(t *testing.T, cfg Config) (*Server, string, [][]float32, func()) {
	t.Helper()
	cfg.QualitySampleRate = 1
	srv, ts, queries := tracedServer(t, cfg)
	return srv, ts.URL, queries, func() {}
}

// waitQualityMeasured polls /debug/quality until the tracker has scored
// at least want samples (the workers are asynchronous).
func waitQualityMeasured(t *testing.T, url string, want uint64) quality.Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snap quality.Snapshot
		getJSON(t, url+"/debug/quality", &snap)
		if snap.Measured >= want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("quality tracker measured %d, want >= %d", snap.Measured, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQualityEndpointScoresServing drives traffic through the sampler and
// compares the live estimate with the offline ground-truth recall of the
// same responses: past 2 points apart, the estimator would be lying to
// operators. Under exact serving the shadow scans must agree with what was
// served, so every estimator reads 1.0; ddc-res over HNSW at a narrow beam
// is the approximate case, where there is a recall loss to estimate.
func TestQualityEndpointScoresServing(t *testing.T) {
	ds, gt := testFixtures(t)
	const k = 5
	for _, tc := range []struct {
		mode   resinfer.Mode
		kind   resinfer.IndexKind
		budget int
		n      int
	}{
		{resinfer.Exact, resinfer.Flat, 0, 10},
		{resinfer.DDCRes, resinfer.HNSW, k, len(ds.Queries)},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			sx, err := resinfer.NewSharded(ds.Data, tc.kind, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sx.Enable(tc.mode, nil); err != nil {
				t.Fatal(err)
			}
			srv := New(sx, Config{QualitySampleRate: 1})
			t.Cleanup(srv.Close)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			url, n := ts.URL, uint64(tc.n)

			var hits int
			for i := 0; i < tc.n; i++ {
				var out searchResponse
				resp := postJSON(t, url+"/search",
					searchRequest{Query: ds.Queries[i], K: k, Mode: string(tc.mode), Budget: tc.budget}, &out)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d", resp.StatusCode)
				}
				for _, nb := range out.Neighbors {
					if slices.Contains(gt[i][:k], nb.ID) {
						hits++
					}
				}
				// The sampler drops what its one worker cannot keep up with;
				// this test wants every query scored, so it paces itself.
				waitQualityMeasured(t, url, uint64(i+1))
			}
			offline := float64(hits) / float64(tc.n*k)
			snap := waitQualityMeasured(t, url, n)
			if snap.SampleRate != 1 || snap.Sampled != n {
				t.Fatalf("sampled %d at rate %d, want %d at 1", snap.Sampled, snap.SampleRate, n)
			}
			if math.Abs(snap.RecallMean-offline) > 0.02 {
				t.Fatalf("live recall %.4f disagrees with offline %.4f by more than 2 points", snap.RecallMean, offline)
			}
			if tc.mode == resinfer.Exact && (snap.RecallMean < 0.999 || snap.RecallWindowMean < 0.999) {
				t.Fatalf("exact serving scored recall mean=%v window=%v, want 1.0",
					snap.RecallMean, snap.RecallWindowMean)
			}
			if len(snap.PerShard) != 4 {
				t.Fatalf("per-shard breakdown has %d entries, want 4", len(snap.PerShard))
			}
			var truth uint64
			for _, sh := range snap.PerShard {
				truth += sh.TruthNeighbors
			}
			if truth != n*k {
				t.Fatalf("per-shard truth total %d, want %d", truth, n*k)
			}
			if snap.SinceCompaction.Samples != n {
				t.Fatalf("since-compaction epoch has %d samples, want %d", snap.SinceCompaction.Samples, n)
			}
			if snap.HotQueriesTotal != n || len(snap.HotQueries) == 0 {
				t.Fatalf("hot-query sketch saw %d offers (%d keys), want %d", snap.HotQueriesTotal, len(snap.HotQueries), n)
			}
		})
	}
}

// TestQualityEndpointAbsentWhenDisabled: without the opt-in the
// endpoint does not exist and searches pay nothing.
func TestQualityEndpointAbsentWhenDisabled(t *testing.T) {
	srv, ts, queries := tracedServer(t, Config{})
	if srv.quality != nil {
		t.Fatal("quality tracker armed without opt-in")
	}
	var out searchResponse
	postJSON(t, ts.URL+"/search", searchRequest{Query: queries[0], K: 5}, &out)
	resp, err := http.Get(ts.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/quality status %d, want 404", resp.StatusCode)
	}
}

// TestSLOEndpoint: /debug/slo is always mounted; the recall objective
// appears only when shadow sampling feeds it.
func TestSLOEndpoint(t *testing.T) {
	_, url, queries, _ := qualityServer(t, Config{})

	for i := 0; i < 5; i++ {
		var out searchResponse
		postJSON(t, url+"/search", searchRequest{Query: queries[i], K: 5}, &out)
	}
	waitQualityMeasured(t, url, 5)

	var snap quality.SLOSnapshot
	getJSON(t, url+"/debug/slo", &snap)
	if !snap.RecallTracked {
		t.Fatal("recall objective not tracked with sampling on")
	}
	if len(snap.Latency) != 2 || len(snap.Recall) != 2 {
		t.Fatalf("burn windows: latency=%d recall=%d, want 2/2", len(snap.Latency), len(snap.Recall))
	}
	fast := snap.Latency[0]
	if fast.Window != "fast" || fast.Requests < 5 {
		t.Fatalf("fast latency window = %+v", fast)
	}
	// httptest round-trips finish far under the 100ms default threshold,
	// and exact serving has perfect recall: neither objective burns.
	if fast.Burn != 0 || snap.Recall[0].Burn != 0 {
		t.Fatalf("healthy serving burning: latency=%v recall=%v", fast.Burn, snap.Recall[0].Burn)
	}
	if snap.LatencyPage || snap.RecallPage {
		t.Fatal("paging on healthy serving")
	}

	// Without sampling, the endpoint still serves the latency objective.
	_, ts, _ := tracedServer(t, Config{})
	var bare quality.SLOSnapshot
	getJSON(t, ts.URL+"/debug/slo", &bare)
	if bare.RecallTracked || len(bare.Recall) != 0 {
		t.Fatalf("recall tracked without sampling: %+v", bare)
	}
	if len(bare.Latency) != 2 {
		t.Fatalf("latency windows = %d, want 2", len(bare.Latency))
	}
}

// TestSlowlogCarriesTimestampAndTraceID: a traced slow request's
// slowlog entry records the request's arrival time and the same trace
// ID the client got back in the response header.
func TestSlowlogCarriesTimestampAndTraceID(t *testing.T) {
	_, ts, queries := tracedServer(t, Config{SlowLogThreshold: time.Nanosecond})

	before := time.Now()
	body := strings.NewReader(`{"query":[` + floats(queries[0]) + `],"k":5,"trace":true}`)
	resp, err := http.Post(ts.URL+"/search", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantID := resp.Header.Get(traceIDHeader)
	if wantID == "" {
		t.Fatal("traced response carries no trace ID header")
	}

	// An untraced request still lands in the slowlog, just without an ID.
	var out searchResponse
	postJSON(t, ts.URL+"/search", searchRequest{Query: queries[1], K: 5}, &out)

	var sl slowLogResponse
	getJSON(t, ts.URL+"/debug/slowlog", &sl)
	if len(sl.Entries) != 2 {
		t.Fatalf("%d slowlog entries, want 2", len(sl.Entries))
	}
	untraced, traced := sl.Entries[0], sl.Entries[1]
	if traced.TraceID != wantID {
		t.Fatalf("slow entry trace ID %q, want %q", traced.TraceID, wantID)
	}
	if untraced.TraceID != "" {
		t.Fatalf("untraced entry has trace ID %q", untraced.TraceID)
	}
	for _, e := range sl.Entries {
		if e.Time.Before(before) || e.Time.After(time.Now()) {
			t.Fatalf("entry timestamp %v outside request window", e.Time)
		}
	}
}

// TestAccessLogCarriesTraceID: the access-log line for a traced request
// ends with the trace ID so it joins with the slowlog and the client's
// copy of the trace.
func TestAccessLogCarriesTraceID(t *testing.T) {
	srv, _, queries := tracedServer(t, Config{AccessLog: true})
	var buf syncBuffer
	srv.access = logNew(&buf)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	body := strings.NewReader(`{"query":[` + floats(queries[0]) + `],"k":5,"trace":true}`)
	resp, err := http.Post(hts.URL+"/search", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantID := resp.Header.Get(traceIDHeader)
	var out searchResponse
	postJSON(t, hts.URL+"/search", searchRequest{Query: queries[1], K: 5}, &out)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "trace_id="+wantID) {
		t.Fatalf("traced line missing trace_id=%s: %s", wantID, lines[0])
	}
	if strings.Contains(lines[1], "trace_id=") {
		t.Fatalf("untraced line carries a trace ID: %s", lines[1])
	}
}

// TestBuildInfoExported: the build-info gauge is scrapeable and the
// same identity fields appear in /stats.
func TestBuildInfoExported(t *testing.T) {
	_, ts, _ := tracedServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, `resinfer_build_info{`) {
		t.Fatal("/metrics missing resinfer_build_info")
	}
	for _, want := range []string{`version=`, `goversion=`, `simd=`, `wal_sync="none"`} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics build_info missing %s", want)
		}
	}

	var stats StatsSnapshot
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Version == "" || stats.GoVersion == "" || stats.WALSync != "none" {
		t.Fatalf("stats identity fields = %q/%q/%q", stats.Version, stats.GoVersion, stats.WALSync)
	}
}
