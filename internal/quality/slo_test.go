package quality

import (
	"math"
	"testing"
	"time"

	"resinfer/internal/obs"
)

// newTestSLO builds an SLO without the background ticker, on a fake
// clock the test advances by hand.
func newTestSLO(h *obs.Histogram, cfg SLOConfig, clock *time.Time) *SLO {
	s := &SLO{
		cfg:     cfg.withDefaults(),
		latency: h,
		now:     func() time.Time { return *clock },
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	close(s.done)
	s.snap()
	return s
}

func TestSLOLatencyBurn(t *testing.T) {
	h := obs.NewHistogram([]float64{0.01, 0.1, 1})
	clock := time.Unix(10000, 0)
	s := newTestSLO(h, SLOConfig{
		LatencyThreshold: 100 * time.Millisecond,
		LatencyTarget:    0.99,
	}, &clock)

	// 100 requests, 2 over threshold: error rate 2%, burn 2 at a 1%
	// budget.
	for i := 0; i < 98; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	h.Observe(0.5)
	clock = clock.Add(time.Minute)
	snap := s.Snapshot()
	if len(snap.Latency) != 2 {
		t.Fatalf("want 2 latency windows, got %d", len(snap.Latency))
	}
	fast := snap.Latency[0]
	if fast.Requests != 100 {
		t.Fatalf("fast window saw %d requests, want 100", fast.Requests)
	}
	if math.Abs(fast.ErrorRate-0.02) > 1e-9 {
		t.Fatalf("fast error rate %v, want 0.02", fast.ErrorRate)
	}
	if math.Abs(fast.Burn-2.0) > 1e-9 {
		t.Fatalf("fast burn %v, want 2.0", fast.Burn)
	}
	if fast.Alerting || snap.LatencyPage {
		t.Fatal("burn 2.0 must not alert at the 14.4 fast threshold")
	}
	if snap.RecallTracked || snap.Recall != nil {
		t.Fatal("recall section present without a tracker")
	}
}

func TestSLOWindowsDiverge(t *testing.T) {
	h := obs.NewHistogram([]float64{0.01, 0.1, 1})
	clock := time.Unix(20000, 0)
	s := newTestSLO(h, SLOConfig{
		LatencyThreshold: 100 * time.Millisecond,
		LatencyTarget:    0.99,
	}, &clock)

	// A clean first half-hour...
	for i := 0; i < 1000; i++ {
		h.Observe(0.01)
	}
	clock = clock.Add(30 * time.Minute)
	s.snap()
	// ...then a brutal last minute: every request blows the threshold.
	for i := 0; i < 100; i++ {
		h.Observe(0.9)
	}
	clock = clock.Add(time.Minute)
	snap := s.Snapshot()
	fast, slow := snap.Latency[0], snap.Latency[1]
	// Fast window covers only the bad minute: 100% errors, burn 100.
	if fast.ErrorRate < 0.99 {
		t.Fatalf("fast error rate %v, want ~1.0", fast.ErrorRate)
	}
	if !fast.Alerting {
		t.Fatal("fast window must alert at burn 100")
	}
	// Slow window dilutes over 1100 requests: ~9% errors, burn ~9.
	if slow.ErrorRate > 0.2 {
		t.Fatalf("slow error rate %v, want ~0.09", slow.ErrorRate)
	}
	if !slow.Alerting {
		t.Fatalf("slow burn %v must still exceed the 6.0 threshold", slow.Burn)
	}
	if !snap.LatencyPage {
		t.Fatal("both windows hot must page")
	}
}

func TestSLORecallBurn(t *testing.T) {
	h := obs.NewHistogram([]float64{0.01})
	clock := time.Unix(30000, 0)
	tr := &Tracker{cfg: Config{}.withDefaults()}
	s := newTestSLO(h, SLOConfig{RecallTarget: 0.95}, &clock)
	s.recall = tr

	// 10 samples at recall 0.8: mean shortfall 0.2, budget 0.05 → burn 4.
	for i := 0; i < 10; i++ {
		tr.recallN.Add(1)
		addFloat(&tr.recallErrSumBits, 0.2)
	}
	clock = clock.Add(time.Minute)
	snap := s.Snapshot()
	if !snap.RecallTracked || len(snap.Recall) != 2 {
		t.Fatalf("recall burn missing: %+v", snap)
	}
	fast := snap.Recall[0]
	if fast.Requests != 10 {
		t.Fatalf("recall window saw %d samples, want 10", fast.Requests)
	}
	if math.Abs(fast.ErrorRate-0.2) > 1e-9 {
		t.Fatalf("recall error rate %v, want 0.2", fast.ErrorRate)
	}
	if math.Abs(fast.Burn-4.0) > 1e-9 {
		t.Fatalf("recall burn %v, want 4.0", fast.Burn)
	}
}

func TestSLOSamplePruning(t *testing.T) {
	h := obs.NewHistogram([]float64{0.01})
	clock := time.Unix(40000, 0)
	s := newTestSLO(h, SLOConfig{}, &clock)
	for i := 0; i < 300; i++ {
		clock = clock.Add(time.Minute)
		s.snap()
	}
	s.mu.Lock()
	n := len(s.samples)
	oldest := s.samples[0].t
	s.mu.Unlock()
	if n > 63 {
		t.Fatalf("ring retained %d samples for a 60-tick window", n)
	}
	if clock.Sub(oldest) > time.Hour+2*time.Minute {
		t.Fatalf("oldest sample %v old, want ~1h", clock.Sub(oldest))
	}
}

func TestSLORegisterAndClose(t *testing.T) {
	reg := obs.NewRegistry()
	h := obs.NewHistogram([]float64{0.01})
	s := NewSLO(h, nil, SLOConfig{})
	s.Register(reg)
	var sb testWriter
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`resinfer_slo_latency_burn{window="fast"}`,
		`resinfer_slo_latency_burn{window="slow"}`,
	} {
		if !contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	if contains(out, "resinfer_slo_recall_burn") {
		t.Fatal("recall burn exported without a tracker")
	}
	s.Close()
	s.Close() // idempotent
}

type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
