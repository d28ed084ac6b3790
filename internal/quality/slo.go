package quality

import (
	"sync"
	"time"

	"resinfer/internal/obs"
)

// SLOConfig describes the service-level objectives the burn tracker
// evaluates: a latency objective ("LatencyTarget of requests finish
// within LatencyThreshold") and a recall objective ("mean shadow
// recall@k stays at or above RecallTarget").
type SLOConfig struct {
	LatencyThreshold time.Duration // default 100ms
	LatencyTarget    float64       // default 0.99
	RecallTarget     float64       // default 0.95
}

// Burn rates are read over a fastWindow and a slowWindow, from snapshots
// taken every sloTick.
const (
	fastWindow = 5 * time.Minute
	slowWindow = time.Hour
	sloTick    = 10 * time.Second
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 100 * time.Millisecond
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.RecallTarget <= 0 || c.RecallTarget >= 1 {
		c.RecallTarget = 0.95
	}
	return c
}

// Standard multi-window alert thresholds (error-budget burn
// multipliers): a fast burn this hot exhausts the monthly budget in
// hours; a slow burn this hot exhausts it in days.
const (
	FastBurnAlert = 14.4
	SlowBurnAlert = 6.0
)

// sloSample is one snapshot of the monotone SLO feeds.
type sloSample struct {
	t        time.Time
	latBelow uint64
	latTotal uint64
	recN     uint64
	recErr   float64
}

// SLO tracks multi-window error-budget burn rates by periodically
// snapshotting monotone counters (the request-duration histogram and
// the shadow-recall feed) and diffing the live values against the
// oldest snapshot inside each window.
type SLO struct {
	cfg     SLOConfig
	latency *obs.Histogram // request durations in seconds
	recall  *Tracker       // nil when shadow sampling is off

	mu      sync.Mutex
	samples []sloSample // ascending by time, pruned past slowWindow
	now     func() time.Time

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewSLO builds the tracker over the server's request-duration
// histogram and (optionally, may be nil) the quality tracker, seeds it
// with a t0 sample so burn rates are defined immediately, and starts
// the snapshot ticker.
func NewSLO(latency *obs.Histogram, recall *Tracker, cfg SLOConfig) *SLO {
	s := &SLO{
		cfg:     cfg.withDefaults(),
		latency: latency,
		recall:  recall,
		now:     time.Now,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.snap()
	go s.loop()
	return s
}

func (s *SLO) loop() {
	defer close(s.done)
	tk := time.NewTicker(sloTick)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			s.snap()
		case <-s.stop:
			return
		}
	}
}

// current reads the live monotone feeds.
func (s *SLO) current() sloSample {
	below, total, _ := s.latency.CountAtOrBelow(s.cfg.LatencyThreshold.Seconds())
	smp := sloSample{t: s.now(), latBelow: below, latTotal: total}
	if s.recall != nil {
		smp.recN, smp.recErr = s.recall.RecallBurnFeed()
	}
	return smp
}

// snap appends a snapshot and prunes everything older than slowWindow
// (keeping one sample beyond the edge so the slow window always has a
// baseline).
func (s *SLO) snap() {
	smp := s.current()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, smp)
	cutoff := smp.t.Add(-slowWindow)
	first := 0
	for first < len(s.samples)-1 && s.samples[first+1].t.Before(cutoff) {
		first++
	}
	if first > 0 {
		s.samples = append(s.samples[:0], s.samples[first:]...)
	}
}

// baseline returns the oldest retained sample no older than window
// before now (or the oldest retained overall — right after start the
// t0 seed serves every window).
func (s *SLO) baseline(now time.Time, window time.Duration) sloSample {
	cutoff := now.Add(-window)
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.samples[0]
	for _, smp := range s.samples {
		if smp.t.After(cutoff) {
			// First sample inside the window: take it instead of the
			// last one outside only if it sits closer to the cutoff —
			// after a snapshot gap the nearer sample bounds the window
			// more faithfully.
			if cutoff.Sub(base.t) > smp.t.Sub(cutoff) {
				base = smp
			}
			break
		}
		base = smp
	}
	return base
}

// WindowBurn is one window's burn figures for one objective.
type WindowBurn struct {
	Window    string  `json:"window"`
	Seconds   float64 `json:"seconds"`
	Requests  uint64  `json:"requests"`
	ErrorRate float64 `json:"error_rate"`
	Burn      float64 `json:"burn"`
	Alerting  bool    `json:"alerting"`
}

// burnOver computes one objective's burn between base and cur.
func burnOver(errDelta, totalDelta float64, target float64, window string, seconds float64, alertAt float64) WindowBurn {
	wb := WindowBurn{Window: window, Seconds: seconds}
	if totalDelta <= 0 {
		return wb
	}
	wb.Requests = uint64(totalDelta)
	wb.ErrorRate = errDelta / totalDelta
	wb.Burn = wb.ErrorRate / (1 - target)
	wb.Alerting = wb.Burn >= alertAt
	return wb
}

// LatencyBurn returns the latency-objective burn over the given window.
func (s *SLO) latencyBurn(cur, base sloSample, name string, d time.Duration, alertAt float64) WindowBurn {
	total := float64(cur.latTotal) - float64(base.latTotal)
	ok := float64(cur.latBelow) - float64(base.latBelow)
	return burnOver(total-ok, total, s.cfg.LatencyTarget, name, d.Seconds(), alertAt)
}

// recallBurn returns the recall-objective burn over the given window.
// The "error rate" is the mean recall shortfall (1 − recall) per
// sample, so burn 1.0 means recall ran exactly at target.
func (s *SLO) recallBurn(cur, base sloSample, name string, d time.Duration, alertAt float64) WindowBurn {
	n := float64(cur.recN) - float64(base.recN)
	errSum := cur.recErr - base.recErr
	return burnOver(errSum, n, s.cfg.RecallTarget, name, d.Seconds(), alertAt)
}

// SLOSnapshot is the JSON body of GET /debug/slo.
type SLOSnapshot struct {
	LatencyThresholdMs float64 `json:"latency_threshold_ms"`
	LatencyTarget      float64 `json:"latency_target"`
	RecallTarget       float64 `json:"recall_target"`
	RecallTracked      bool    `json:"recall_tracked"`

	Latency []WindowBurn `json:"latency_burn"`
	Recall  []WindowBurn `json:"recall_burn,omitempty"`

	// Page when the fast AND slow windows both burn hot — the standard
	// multi-window condition that filters short blips without missing
	// sustained burns.
	LatencyPage bool `json:"latency_page"`
	RecallPage  bool `json:"recall_page"`
}

// Snapshot computes every window's burn figures from the live counters.
func (s *SLO) Snapshot() SLOSnapshot {
	cur := s.current()
	fastBase := s.baseline(cur.t, fastWindow)
	slowBase := s.baseline(cur.t, slowWindow)

	out := SLOSnapshot{
		LatencyThresholdMs: float64(s.cfg.LatencyThreshold) / float64(time.Millisecond),
		LatencyTarget:      s.cfg.LatencyTarget,
		RecallTarget:       s.cfg.RecallTarget,
		RecallTracked:      s.recall != nil,
	}
	lf := s.latencyBurn(cur, fastBase, "fast", fastWindow, FastBurnAlert)
	ls := s.latencyBurn(cur, slowBase, "slow", slowWindow, SlowBurnAlert)
	out.Latency = []WindowBurn{lf, ls}
	out.LatencyPage = lf.Alerting && ls.Alerting
	if s.recall != nil {
		rf := s.recallBurn(cur, fastBase, "fast", fastWindow, FastBurnAlert)
		rs := s.recallBurn(cur, slowBase, "slow", slowWindow, SlowBurnAlert)
		out.Recall = []WindowBurn{rf, rs}
		out.RecallPage = rf.Alerting && rs.Alerting
	}
	return out
}

// Register exports the burn rates as scrape-time gauges.
func (s *SLO) Register(reg *obs.Registry) {
	mk := func(latency bool, fast bool) func() float64 {
		return func() float64 {
			cur := s.current()
			w, d := "slow", slowWindow
			alertAt := SlowBurnAlert
			if fast {
				w, d, alertAt = "fast", fastWindow, FastBurnAlert
			}
			base := s.baseline(cur.t, d)
			if latency {
				return s.latencyBurn(cur, base, w, d, alertAt).Burn
			}
			return s.recallBurn(cur, base, w, d, alertAt).Burn
		}
	}
	reg.GaugeFunc("resinfer_slo_latency_burn",
		"Latency SLO error-budget burn rate (1.0 = burning exactly at target).",
		mk(true, true), obs.Label{Name: "window", Value: "fast"})
	reg.GaugeFunc("resinfer_slo_latency_burn",
		"Latency SLO error-budget burn rate (1.0 = burning exactly at target).",
		mk(true, false), obs.Label{Name: "window", Value: "slow"})
	if s.recall != nil {
		reg.GaugeFunc("resinfer_slo_recall_burn",
			"Recall SLO error-budget burn rate (1.0 = burning exactly at target).",
			mk(false, true), obs.Label{Name: "window", Value: "fast"})
		reg.GaugeFunc("resinfer_slo_recall_burn",
			"Recall SLO error-budget burn rate (1.0 = burning exactly at target).",
			mk(false, false), obs.Label{Name: "window", Value: "slow"})
	}
}

// Close stops the snapshot ticker. Idempotent.
func (s *SLO) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}
