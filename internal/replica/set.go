package replica

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"resinfer/internal/retry"
)

// A Set probes every member each probeInterval, ejects one after
// failThreshold consecutive probe failures and backs a failing member's
// probes off exponentially, jittered, up to 8× the interval. An ejected
// member keeps being probed on the backed-off cadence and is re-admitted
// on the first success — by then it has flipped its /readyz, which a
// catching-up replica only does once caught up. One probe request may
// take probeTimeout.
const (
	probeInterval = time.Second
	failThreshold = 3
	probeTimeout  = time.Second
)

// member is one peer's health record; all fields are guarded by Set.mu.
type member struct {
	url       string
	healthy   bool
	fails     int       // consecutive probe failures
	lastErr   error     // most recent probe failure
	nextProbe time.Time // earliest next probe (backoff while failing)
}

// MemberStatus is one peer's health snapshot, for status endpoints and
// logs.
type MemberStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Fails     int    `json:"consecutive_failures"`
	LastError string `json:"last_error,omitempty"`
}

// Set is a health-checked replica membership: it probes every peer's
// /readyz on a jittered cadence, ejects members after consecutive
// failures, backs their probes off exponentially, re-admits them on the
// first successful probe, and routes hedges round-robin over the
// healthy members. Start launches the prober; Close stops it.
//
// Lock order: Set.mu is a leaf — nothing else is acquired under it, and
// the prober calls the network strictly outside it.
type Set struct {
	client   *Client
	interval time.Duration // healthy-member probe cadence

	mu      sync.Mutex
	members []*member

	rr atomic.Uint64 // round-robin hedge-routing cursor

	ejections    atomic.Uint64
	readmissions atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// NewSet builds a Set over validated peer base URLs (ParsePeers output).
// Members start healthy — a replica set usually comes up all-green and
// the first probe round corrects any optimism within one interval.
func NewSet(peers []string, client *Client) *Set {
	return newSet(peers, client, probeInterval)
}

// newSet is NewSet probing every interval.
func newSet(peers []string, client *Client, interval time.Duration) *Set {
	s := &Set{
		client:   client,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, p := range peers {
		s.members = append(s.members, &member{url: p, healthy: true})
	}
	return s
}

// Start launches the background prober. Call once; Close stops it.
func (s *Set) Start() {
	go s.probeLoop()
}

// Close stops the prober and waits for it to exit.
func (s *Set) Close() {
	close(s.stop)
	<-s.done
}

// backoffPolicy shapes the failing-member probe cadence: exponential
// from the probe interval, jittered so a fleet of replicas does not
// probe a recovering peer in lockstep.
func (s *Set) backoffPolicy() retry.Policy {
	return retry.Policy{
		Base:   s.interval,
		Factor: 2,
		Max:    8 * s.interval,
		Jitter: 0.2,
	}
}

// probeLoop drives one probe round per interval (jittered ±10% via the
// same retry jitter source). Each round probes, in parallel, every
// member whose backoff has elapsed.
func (s *Set) probeLoop() {
	defer close(s.done)
	pol := retry.Policy{Base: s.interval, Factor: 1, Jitter: 0.1}
	for round := 0; ; round++ {
		select {
		case <-s.stop:
			return
		case <-time.After(pol.Backoff(round)):
		}
		s.probeRound(time.Now())
	}
}

// probeRound probes every due member concurrently and folds the results
// back into the membership under the lock.
func (s *Set) probeRound(now time.Time) {
	s.mu.Lock()
	due := make([]int, 0, len(s.members))
	urls := make([]string, 0, len(s.members))
	for i, m := range s.members {
		if now.Before(m.nextProbe) {
			continue
		}
		due = append(due, i)
		urls = append(urls, m.url)
	}
	s.mu.Unlock()
	if len(due) == 0 {
		return
	}
	errs := make([]error, len(due))
	var wg sync.WaitGroup
	for j := range due {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			errs[j] = s.client.ProbeReady(ctx, urls[j], due[j])
		}(j)
	}
	wg.Wait()

	pol := s.backoffPolicy()
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, i := range due {
		m := s.members[i]
		if errs[j] == nil {
			if !m.healthy {
				s.readmissions.Add(1)
			}
			m.healthy = true
			m.fails = 0
			m.lastErr = nil
			m.nextProbe = time.Time{} // healthy members ride the round cadence
			continue
		}
		m.fails++
		m.lastErr = errs[j]
		if m.healthy && m.fails >= failThreshold {
			m.healthy = false
			s.ejections.Add(1)
		}
		if m.fails >= failThreshold {
			m.nextProbe = time.Now().Add(pol.Backoff(m.fails - failThreshold))
		}
	}
}

// PickHealthy returns the next healthy member round-robin, or ok=false
// when every member is ejected (the hedge then fails fast and the shard
// outcome rests on the local probe alone).
func (s *Set) PickHealthy() (url string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.members)
	if n == 0 {
		return "", false
	}
	start := int(s.rr.Add(1)-1) % n
	for off := 0; off < n; off++ {
		m := s.members[(start+off)%n]
		if m.healthy {
			return m.url, true
		}
	}
	return "", false
}

// Healthy returns how many members are currently admitted.
func (s *Set) Healthy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.members {
		if m.healthy {
			n++
		}
	}
	return n
}

// Size returns the total member count.
func (s *Set) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// Churn reports lifetime ejection and re-admission counts.
func (s *Set) Churn() (ejections, readmissions uint64) {
	return s.ejections.Load(), s.readmissions.Load()
}

// Snapshot captures every member's health for status endpoints.
func (s *Set) Snapshot() []MemberStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MemberStatus, len(s.members))
	for i, m := range s.members {
		out[i] = MemberStatus{URL: m.url, Healthy: m.healthy, Fails: m.fails}
		if m.lastErr != nil {
			out[i].LastError = m.lastErr.Error()
		}
	}
	return out
}
