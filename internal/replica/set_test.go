package replica

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resinfer/internal/fault"
)

// readyzServer is a peer stub whose readiness can be flipped at will.
type readyzServer struct {
	ready atomic.Bool
	srv   *httptest.Server
}

func newReadyzServer(t *testing.T) *readyzServer {
	t.Helper()
	rs := &readyzServer{}
	rs.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if rs.ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	rs.srv = httptest.NewServer(mux)
	t.Cleanup(rs.srv.Close)
	return rs
}

// fastSet builds a Set over the given peers with an aggressive probe
// cadence so ejection/readmission tests run in tens of milliseconds.
func fastSet(t *testing.T, urls ...string) *Set {
	t.Helper()
	s := newSet(urls, NewClient(time.Second), 5*time.Millisecond)
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSetEjectionAndReadmission is the membership state machine
// end-to-end: a peer going unready is ejected after failThreshold
// consecutive probe failures, kept on backed-off probes, and re-admitted
// on its first successful probe.
func TestSetEjectionAndReadmission(t *testing.T) {
	a, b := newReadyzServer(t), newReadyzServer(t)
	s := fastSet(t, a.srv.URL, b.srv.URL)
	waitFor(t, 2*time.Second, "both healthy", func() bool { return s.Healthy() == 2 })

	b.ready.Store(false)
	waitFor(t, 2*time.Second, "ejection", func() bool { return s.Healthy() == 1 })
	ej, re := s.Churn()
	if ej != 1 || re != 0 {
		t.Fatalf("churn after ejection: ejections=%d readmissions=%d, want 1/0", ej, re)
	}
	// Every pick must now land on the healthy peer.
	for i := 0; i < 10; i++ {
		u, ok := s.PickHealthy()
		if !ok || u != a.srv.URL {
			t.Fatalf("pick %d: got %q ok=%v, want the healthy peer", i, u, ok)
		}
	}

	b.ready.Store(true)
	waitFor(t, 2*time.Second, "readmission", func() bool { return s.Healthy() == 2 })
	if _, re := s.Churn(); re != 1 {
		t.Fatalf("readmissions = %d, want 1", re)
	}
}

// TestSetSingleFailureDoesNotEject: transient blips below the threshold
// must not evict a member.
func TestSetSingleFailureDoesNotEject(t *testing.T) {
	a := newReadyzServer(t)
	// Fail exactly two probes — one below the threshold of 3.
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(flaky.Close)
	s := fastSet(t, a.srv.URL, flaky.URL)
	waitFor(t, 2*time.Second, "blip absorbed", func() bool { return n.Load() >= 4 })
	if ej, _ := s.Churn(); ej != 0 {
		t.Fatalf("ejections = %d after sub-threshold blip, want 0", ej)
	}
	if s.Healthy() != 2 {
		t.Fatalf("healthy = %d, want 2", s.Healthy())
	}
}

// TestSetPickRoundRobin: healthy members share hedge load.
func TestSetPickRoundRobin(t *testing.T) {
	a, b := newReadyzServer(t), newReadyzServer(t)
	s := fastSet(t, a.srv.URL, b.srv.URL)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		u, ok := s.PickHealthy()
		if !ok {
			t.Fatal("no healthy member")
		}
		seen[u]++
	}
	if seen[a.srv.URL] != 5 || seen[b.srv.URL] != 5 {
		t.Fatalf("round robin skewed: %v", seen)
	}
}

// TestSetAllEjected: with every member down, PickHealthy fails fast so
// hedges do not queue behind dead peers.
func TestSetAllEjected(t *testing.T) {
	a := newReadyzServer(t)
	a.ready.Store(false)
	s := fastSet(t, a.srv.URL)
	waitFor(t, 2*time.Second, "ejection", func() bool { return s.Healthy() == 0 })
	if _, ok := s.PickHealthy(); ok {
		t.Fatal("PickHealthy returned a member with everyone ejected")
	}
}

// TestSetProbeFaultInjection: the replica.probe site partitions one
// member by index without touching the network.
func TestSetProbeFaultInjection(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	a, b := newReadyzServer(t), newReadyzServer(t)
	defer fault.Inject(fault.Injection{
		Site: fault.SiteReplicaProbe, Arg: 1, Err: errors.New("injected partition"),
	})()
	s := fastSet(t, a.srv.URL, b.srv.URL)
	waitFor(t, 2*time.Second, "injected ejection", func() bool { return s.Healthy() == 1 })
	snap := s.Snapshot()
	if !snap[0].Healthy || snap[1].Healthy {
		t.Fatalf("wrong member ejected: %+v", snap)
	}
	if snap[1].LastError == "" {
		t.Fatal("ejected member carries no lastErr")
	}
}

// TestSetConcurrentPickAndProbe drives PickHealthy from many goroutines
// while the prober churns membership — the -race leg for the Set state
// machine.
func TestSetConcurrentPickAndProbe(t *testing.T) {
	a, b := newReadyzServer(t), newReadyzServer(t)
	s := fastSet(t, a.srv.URL, b.srv.URL)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.PickHealthy()
				s.Healthy()
				s.Snapshot()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		b.ready.Store(i%2 == 0)
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestProbeReadyStatuses: the probe treats any non-200 as failure and a
// cancelled context as an error, not a hang.
func TestProbeReadyStatuses(t *testing.T) {
	a := newReadyzServer(t)
	c := NewClient(time.Second)
	if err := c.ProbeReady(context.Background(), a.srv.URL, 0); err != nil {
		t.Fatalf("ready peer probed unready: %v", err)
	}
	a.ready.Store(false)
	if err := c.ProbeReady(context.Background(), a.srv.URL, 0); err == nil {
		t.Fatal("unready peer probed ready")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.ProbeReady(ctx, a.srv.URL, 0); err == nil {
		t.Fatal("cancelled probe succeeded")
	}
}
