package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one timed operation. due equals sent in a closed loop; in an
// open loop due is the scheduled send time, and latency counts from it.
type sample struct {
	due, sent, done time.Time
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// closedLoop calls one(i) back to back from the calling goroutine, for
// i = 0, 1, 2, … until more(i) is false: the next call starts only after
// the previous one returned, as a caller that waits for each reply does.
func closedLoop(more func(i int) bool, one func(i int) error) []sample {
	out := make([]sample, 0, 1<<15)
	for i := 0; more(i); i++ {
		t0 := time.Now()
		err := one(i)
		out = append(out, sample{due: t0, sent: t0, done: time.Now(), err: err})
	}
	return out
}

// openLoop issues n operations on a fixed schedule, operation i due at
// start + i·interval, from conns goroutines (operation i belongs to
// goroutine i mod conns, so each goroutine is one connection's worth of
// serial requests). A goroutine that is still busy when its next
// operation falls due sends it as soon as it is free, and the wait
// counts towards that operation's latency: a stall slows the following
// operations instead of silently thinning the load.
func openLoop(start time.Time, interval time.Duration, n, conns int, one func(conn, i int) error) []sample {
	out := make([]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := one(c, i)
				out[i] = sample{due: due, sent: sent, done: time.Now(), err: err}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// tailPercentiles are the percentiles a timing may be reported at.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile that has at least ten of
// n samples beyond it, and never less than the median.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (from 1) of the p-th percentile
// among n sorted values; n - rank values lie beyond it.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9 % of 10 000 at 9 990 despite 99.9 not being
	// a binary fraction.
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the p-th percentile (nearest rank) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median of sorted values, the mean of the middle two when their count
// is even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// millis converts the latencies of the error-free samples due at or
// after from into milliseconds.
func millis(samples []sample, from time.Time) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && !s.due.Before(from) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return out
}

// lateTail is how late an open-loop generator ran: the tail percentile,
// in milliseconds, of the time between an operation falling due and
// being sent.
func lateTail(samples []sample) float64 {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = float64(s.sent.Sub(s.due)) / 1e6
	}
	sort.Float64s(late)
	return percentile(late, tailPercentile(len(late)))
}
