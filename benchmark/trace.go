package main

import (
	"sort"
	"sync"
	"time"

	"resinfer/internal/core"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Times are nanoseconds
// since the recorder's origin; Parent is the index, within the same
// recorder, of the span that caused this one (-1 for a root); spans of
// one request share Query (searches count from 0, mutations from -1
// down).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query_id"`
}

// recorder keeps one rung's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs share the traced runs' code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a span and returns its index, for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, query int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
		Parent: parent, Query: query,
	})
	return len(r.spans) - 1
}

// selfTime sums, over the spans of one name, the two ways a layer's own
// code shows up in a trace. busy is self time: each span's duration minus
// the part of it that its child spans cover (children running in
// parallel cover their union once). blocking is busy weighted by how much
// of the request's wall time the span stands for: when siblings overlap,
// the stretch they cover together is split among them by duration, so
// over a whole request tree blocking adds up to the root's duration —
// the latency — while busy adds up to the processor time spent.
type selfTime struct {
	busy, blocking float64 // nanoseconds
}

func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]selfTime)
	var visit func(i int, weight float64)
	visit = func(i int, weight float64) {
		s := spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, summed int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				summed += hi - lo
			}
			if lo = max(lo, edge); hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := float64(s.End - s.Start - covered)
		st := out[s.Name]
		st.busy += self
		st.blocking += weight * self
		out[s.Name] = st
		if summed > 0 {
			weight *= float64(covered) / float64(summed)
		}
		for _, k := range kids {
			visit(k, weight)
		}
	}
	for i, s := range spans {
		if s.Parent < 0 {
			visit(i, 1)
		}
	}
	return out
}

// clockEvery is how many Compare calls share one clocked call. A clock
// pair costs about as much as the Compare it wraps, so timing every call
// would measure mostly the clock; every eighth call is timed and stands
// for the seven after it.
const clockEvery = 8

// timedEvaluator decorates a comparator's per-query evaluator with a
// clock, so the graph walk that drives it can be split into comparator
// time and its own. Reset and Distance are timed on every call, Compare
// on every clockEvery-th. It forwards every argument and result
// untouched: a search through it returns what the bare evaluator
// returns.
type timedEvaluator struct {
	inner core.ResettableEvaluator
	bias  time.Duration // what the clock reads across an empty interval

	reset, compare, distance time.Duration // of the current query; compare is scaled up from the clocked calls
	compares                 int64
}

func (t *timedEvaluator) Reset(q []float32) error {
	t0 := time.Now()
	err := t.inner.Reset(q)
	t.reset = time.Since(t0) - t.bias
	t.compare, t.distance, t.compares = 0, 0, 0
	return err
}

func (t *timedEvaluator) Compare(id int, tau float32) (float32, bool) {
	t.compares++
	if t.compares%clockEvery != 0 {
		return t.inner.Compare(id, tau)
	}
	t0 := time.Now()
	d, pruned := t.inner.Compare(id, tau)
	t.compare += clockEvery * (time.Since(t0) - t.bias)
	return d, pruned
}

func (t *timedEvaluator) Distance(id int) float32 {
	t0 := time.Now()
	d := t.inner.Distance(id)
	t.distance += time.Since(t0) - t.bias
	return d
}

func (t *timedEvaluator) Stats() *core.Stats { return t.inner.Stats() }

// clockBias measures, in nanoseconds, what time.Since(time.Now()) reads
// with nothing in between: the part of the clock's own cost that lands
// inside every interval the timed evaluator measures, which it subtracts.
func clockBias() float64 {
	const n = 100_000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += time.Since(time.Now())
	}
	return float64(total) / n
}
