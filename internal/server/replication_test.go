package server

// Tests for the replication endpoints: hedged shard probes, checkpoint
// serving, WAL tail streaming with gap detection, replica read-only
// rejection, and the catching-up /readyz gate.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/wal"
)

func newWALPrimary(t *testing.T, cfg Config) (*resinfer.MutableIndex, *Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	data := make([][]float32, 600)
	for i := range data {
		row := make([]float32, 24)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		data[i] = row
	}
	mx, err := resinfer.NewMutable(data, resinfer.Flat, 2, &resinfer.MutableOptions{
		DisableAutoCompact: true,
		WALDir:             t.TempDir(),
		WALSync:            resinfer.WALSyncNone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)
	srv := New(mx, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return mx, srv, ts
}

func replVec(seed int64, dim int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, dim)
	for j := range v {
		v[j] = float32(rng.NormFloat64())
	}
	return v
}

// TestShardSearchEndpoint: the hedge target returns exactly the
// contribution SearchShardGlobal computes locally.
func TestShardSearchEndpoint(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	q := replVec(77, 24)
	want, wantSt, err := mx.SearchShardGlobal(1, q, 5, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"shard": 1, "query": q, "k": 5, "mode": "exact", "budget": 0})
	resp, err := http.Post(ts.URL+"/internal/shard/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var got ShardSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(got.Neighbors), len(want))
	}
	for i, n := range got.Neighbors {
		if n.ID != want[i].ID {
			t.Fatalf("neighbor %d: id %d, want %d", i, n.ID, want[i].ID)
		}
	}
	if got.Comparisons != wantSt.Comparisons {
		t.Fatalf("comparisons %d, want %d", got.Comparisons, wantSt.Comparisons)
	}

	// Out-of-range shard and unknown field are 400s, not 500s.
	for _, bad := range []string{
		`{"shard": 9, "query": [1], "k": 5}`,
		`{"shard": 0, "vektor": [1]}`,
	} {
		resp, err := http.Post(ts.URL+"/internal/shard/search", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestReplicaCheckpointRoundTrip: the checkpoint endpoint serves a
// loadable snapshot whose applied LSN matches the header.
func TestReplicaCheckpointRoundTrip(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	for i := 0; i < 15; i++ {
		if _, err := mx.Upsert(-1, replVec(int64(i), 24)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/internal/replica/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(lastLSNHeader); got != strconv.FormatUint(mx.AppliedLSN(), 10) {
		t.Fatalf("%s = %q, want %d", lastLSNHeader, got, mx.AppliedLSN())
	}
	clone, err := resinfer.LoadMutable(resp.Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if clone.Len() != mx.Len() {
		t.Fatalf("clone has %d rows, primary %d", clone.Len(), mx.Len())
	}
	if clone.AppliedLSN() != mx.AppliedLSN() {
		t.Fatalf("clone lsn %d, primary %d", clone.AppliedLSN(), mx.AppliedLSN())
	}
	q := replVec(501, 24)
	a, _, _ := mx.SearchInto(nil, q, 10, resinfer.Exact, 0)
	b, _, _ := clone.SearchInto(nil, q, 10, resinfer.Exact, 0)
	ids := func(ns []resinfer.Neighbor) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		sort.Ints(out)
		return out
	}
	ai, bi := ids(a), ids(b)
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatalf("clone diverges: %v vs %v", ai, bi)
		}
	}
}

// fetchTail reads the WAL endpoint into decoded records.
func fetchTail(t *testing.T, base string, from uint64) ([]wal.Record, uint64, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/internal/replica/wal?from=%d", base, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, 0, resp.StatusCode
	}
	last, _ := strconv.ParseUint(resp.Header.Get(lastLSNHeader), 10, 64)
	sr := wal.NewStreamReader(resp.Body)
	var recs []wal.Record
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding tail: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs, last, http.StatusOK
}

// TestReplicaWALTail: the tail serves exactly the records past the
// cursor, and an up-to-date cursor gets an empty 200.
func TestReplicaWALTail(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	for i := 0; i < 8; i++ {
		if _, err := mx.Upsert(-1, replVec(int64(i), 24)); err != nil {
			t.Fatal(err)
		}
	}
	recs, last, code := fetchTail(t, ts.URL, 3)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if last != mx.AppliedLSN() {
		t.Fatalf("last-lsn header %d, want %d", last, mx.AppliedLSN())
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records past cursor 3, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(4+i) {
			t.Fatalf("record %d: lsn %d, want %d", i, rec.LSN, 4+i)
		}
		if rec.Op != wal.OpUpsert || len(rec.Vec) != 24 {
			t.Fatalf("record %d malformed: op=%d dim=%d", i, rec.Op, len(rec.Vec))
		}
	}
	// Caught-up cursor: empty tail, still 200 with the high-water mark.
	recs, last, code = fetchTail(t, ts.URL, mx.AppliedLSN())
	if code != http.StatusOK || len(recs) != 0 || last != mx.AppliedLSN() {
		t.Fatalf("caught-up tail: code=%d recs=%d last=%d", code, len(recs), last)
	}
}

// TestReplicaWALGapGone: a cursor behind trimmed history is 410, never
// a silently incomplete tail.
func TestReplicaWALGapGone(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	for i := 0; i < 10; i++ {
		if _, err := mx.Upsert(-1, replVec(int64(i), 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, code := fetchTail(t, ts.URL, 2); code != http.StatusGone {
		t.Fatalf("stale cursor: status %d, want 410", code)
	}
	// The checkpoint's own record is still retained, so the snapshot
	// cursor itself must NOT be a gap.
	if _, _, code := fetchTail(t, ts.URL, 10); code != http.StatusOK {
		t.Fatalf("snapshot cursor: status %d, want 200", code)
	}
	// Malformed cursor is the client's fault.
	resp, err := http.Get(ts.URL + "/internal/replica/wal?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}
}

// TestReplicaStatusEndpoint reports the applied LSN and row count.
func TestReplicaStatusEndpoint(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	if _, err := mx.Upsert(-1, replVec(1, 24)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/internal/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st replicaStatusJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.AppliedLSN != mx.AppliedLSN() || st.Points != mx.Len() {
		t.Fatalf("status %+v, want lsn=%d points=%d", st, mx.AppliedLSN(), mx.Len())
	}
}

// TestReplicaReadOnlyReject: a server marked ReplicaOf rejects external
// mutations with 503 naming the primary, while searches keep serving.
func TestReplicaReadOnlyReject(t *testing.T) {
	_, _, ts := newWALPrimary(t, Config{ReplicaOf: "http://primary:8080"})
	body := `{"vector": [` + strings.Repeat("0.1,", 23) + `0.1]}`
	resp, err := http.Post(ts.URL+"/upsert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica upsert: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "http://primary:8080") {
		t.Fatalf("rejection does not name the primary: %s", msg)
	}
	for _, ep := range []string{"/delete", "/compact"} {
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(`{"id":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("replica %s: status %d, want 503", ep, resp.StatusCode)
		}
	}
	// Searches still serve.
	q := replVec(3, 24)
	sb, _ := json.Marshal(map[string]any{"query": q, "k": 5, "mode": "exact"})
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(sb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica search: status %d, want 200", resp.StatusCode)
	}
}

// TestReadyzCatchingUp: the ReadyCheck hook gates /readyz until the
// follower reports caught up.
func TestReadyzCatchingUp(t *testing.T) {
	behind := true
	_, _, ts := newWALPrimary(t, Config{ReadyCheck: func() error {
		if behind {
			return errors.New("catching up to http://primary:8080 (cursor 7)")
		}
		return nil
	}})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr readyResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rr.Status != "catching-up" {
		t.Fatalf("catching up: status=%d body=%+v, want 503 catching-up", resp.StatusCode, rr)
	}
	behind = false
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught up: status %d, want 200", resp.StatusCode)
	}
}

// TestHedgeMetricsExposed: wrapping an index type with hedging support
// surfaces the hedge counters on /metrics.
func TestHedgeMetricsExposed(t *testing.T) {
	mx, _, ts := newWALPrimary(t, Config{})
	mx.SetShardHedger(func(ctx context.Context, shard int, q []float32, k int, mode resinfer.Mode, budget int) ([]resinfer.Neighbor, resinfer.SearchStats, error) {
		return nil, resinfer.SearchStats{}, nil
	}, time.Millisecond)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"resinfer_hedged_total", "resinfer_hedge_wins_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}
