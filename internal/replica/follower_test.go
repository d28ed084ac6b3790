package replica

// End-to-end catch-up tests: a real primary (mutable index + WAL)
// served by internal/server, a follower joining over HTTP, streaming
// the WAL tail, and flipping ready once caught up.

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"resinfer"
	"resinfer/internal/fault"
	"resinfer/internal/server"
)

// newPrimary builds a WAL-backed mutable index and serves it over an
// httptest server with the replication endpoints mounted.
func newPrimary(t *testing.T) (*resinfer.MutableIndex, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	data := make([][]float32, 400)
	for i := range data {
		row := make([]float32, 16)
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
	srv := server.New(mx, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return mx, ts.URL
}

func primaryVec(seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, 16)
	for j := range v {
		v[j] = float32(rng.NormFloat64())
	}
	return v
}

// joinFollower joins the primary and returns the follower with a fast
// poll cadence, running until the test ends.
func joinFollower(t *testing.T, primaryURL string) (*Follower, context.CancelFunc) {
	t.Helper()
	f, err := Join(context.Background(), primaryURL, NewClient(2*time.Second),
		&resinfer.MutableOptions{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Index().Close() })
	f.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return f, cancel
}

// TestFollowerJoinAndCatchUp is the catch-up lifecycle end to end:
// snapshot join, not-ready while behind, WAL tail replay, ready flip,
// and identical search results once caught up.
func TestFollowerJoinAndCatchUp(t *testing.T) {
	mx, url := newPrimary(t)
	// Mutations before the join land in the snapshot...
	for i := 0; i < 20; i++ {
		if _, err := mx.Upsert(-1, primaryVec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := joinFollower(t, url)
	if err := f.Ready(); err == nil {
		// Legal: the snapshot may already cover everything and the first
		// tail round may have run. But before any tail round Ready must
		// not panic; nothing to assert here beyond that.
		_ = err
	}
	// ...and mutations after it arrive over the WAL stream.
	var delID int
	for i := 0; i < 30; i++ {
		id, err := mx.Upsert(-1, primaryVec(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			delID = id
		}
	}
	if _, err := mx.Delete(delID); err != nil {
		t.Fatal(err)
	}
	want := mx.AppliedLSN()
	waitDur(t, 5*time.Second, "catch-up", func() bool {
		return f.CaughtUp() && f.Cursor() >= want
	})
	if err := f.Ready(); err != nil {
		t.Fatalf("Ready after catch-up: %v", err)
	}
	ups, dels := f.Applied()
	if ups < 30 || dels < 1 {
		t.Fatalf("applied upserts=%d deletes=%d, want >=30/>=1", ups, dels)
	}
	if got, wantN := f.Index().Len(), mx.Len(); got != wantN {
		t.Fatalf("follower has %d rows, primary %d", got, wantN)
	}
	q := primaryVec(999)
	pw, _, err := mx.SearchInto(nil, q, 10, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := f.Index().SearchInto(nil, q, 10, resinfer.Exact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pw) != len(fw) {
		t.Fatalf("result sizes differ: %d vs %d", len(pw), len(fw))
	}
	for i := range pw {
		if pw[i].ID != fw[i].ID {
			t.Fatalf("result %d: primary id %d, follower id %d", i, pw[i].ID, fw[i].ID)
		}
	}
}

// TestFollowerLiveTail: a caught-up follower keeps applying new primary
// mutations as they happen.
func TestFollowerLiveTail(t *testing.T) {
	mx, url := newPrimary(t)
	f, _ := joinFollower(t, url)
	waitDur(t, 5*time.Second, "initial catch-up", func() bool { return f.CaughtUp() })
	for i := 0; i < 10; i++ {
		if _, err := mx.Upsert(-1, primaryVec(int64(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	want := mx.AppliedLSN()
	waitDur(t, 5*time.Second, "live tail", func() bool { return f.Cursor() >= want })
	if got := f.Index().Len(); got != mx.Len() {
		t.Fatalf("follower has %d rows, primary %d", got, mx.Len())
	}
}

// TestFollowerGapIsPermanent: a cursor behind the primary's trimmed
// history gets 410 Gone; the follower fails permanently, unready, and
// tells the operator to re-sync.
func TestFollowerGapIsPermanent(t *testing.T) {
	mx, url := newPrimary(t)
	for i := 0; i < 10; i++ {
		if _, err := mx.Upsert(-1, primaryVec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint trims the log behind the snapshot: cursor 1 is history.
	if err := mx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f, err := Join(context.Background(), url, NewClient(2*time.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Index().Close()
	f.cursor.Store(1) // simulate a replica that slept through the trim
	f.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = f.Run(ctx)
	if !errors.Is(err, ErrGone) {
		t.Fatalf("Run = %v, want ErrGone", err)
	}
	rerr := f.Ready()
	if rerr == nil || !strings.Contains(rerr.Error(), "-join") {
		t.Fatalf("Ready after gap = %v, want a re-sync instruction", rerr)
	}
	if f.CaughtUp() {
		t.Fatal("follower still claims caught up after permanent failure")
	}
}

// TestFollowerStreamFaultRetries: a transient tail-fetch failure
// (replica.stream fault, one hit) delays catch-up but does not break it.
func TestFollowerStreamFaultRetries(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	mx, url := newPrimary(t)
	for i := 0; i < 5; i++ {
		if _, err := mx.Upsert(-1, primaryVec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	defer fault.Inject(fault.Injection{
		Site: fault.SiteReplicaStream, Err: errors.New("injected flaky link"), Limit: 2,
	})()
	f, _ := joinFollower(t, url)
	want := mx.AppliedLSN()
	waitDur(t, 10*time.Second, "catch-up through flaky link", func() bool {
		return f.CaughtUp() && f.Cursor() >= want
	})
}

// TestJoinFetchFault: an injected replica.fetch failure surfaces as a
// join error, not a partial index.
func TestJoinFetchFault(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, url := newPrimary(t)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteReplicaFetch, Err: errors.New("injected fetch failure"),
	})()
	if _, err := Join(context.Background(), url, NewClient(time.Second), nil); err == nil {
		t.Fatal("join succeeded through injected fetch failure")
	}
}

func waitDur(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
