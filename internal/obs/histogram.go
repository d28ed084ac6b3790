package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observe is lock-free and allocation-free; quantiles are estimated by
// linear interpolation inside the winning bucket, so the error is
// bounded by the in-bucket distribution rather than the bucket width —
// the fix for the old log2 histogram whose quantiles were only exact to
// a factor of two.
type Histogram struct {
	bounds  []float64       // finite ascending upper bounds
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given finite ascending
// bucket upper bounds (an implicit +Inf bucket is appended). It panics
// on an empty or unsorted bound list — a registration-time programmer
// error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %g after %g",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// ExponentialBuckets returns count bounds starting at start, each
// factor times the previous — the standard shape for latency buckets.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns count bounds start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	if count < 1 {
		panic("obs: LinearBuckets needs count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value. It never allocates.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds (the Prometheus base unit).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot loads the bucket array once; every derived figure (count,
// quantiles, rendition) uses the same loaded values so they are
// mutually consistent even under concurrent Observe traffic.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	counts := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return h.Sum() / float64(total)
}

// Quantile estimates the p-th quantile (p in [0,1]) by linear
// interpolation inside the bucket containing the target rank, assuming
// a uniform in-bucket distribution. Observations in the +Inf overflow
// bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(p float64) float64 {
	return bucketQuantile(h.bounds, h.snapshot(), p)
}

// bucketQuantile is the p-th quantile of the observations counted over
// bounds (len(counts) == len(bounds)+1, the last the +Inf bucket), by
// linear interpolation inside the bucket holding the target rank; 0 with
// no observations.
func bucketQuantile(bounds []float64, counts []uint64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	target := p * float64(total)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) >= target {
			if i == len(bounds) {
				// Overflow bucket: no finite upper bound to interpolate
				// toward; report the largest finite bound (a floor).
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (target - float64(prev)) / float64(c)
			return lo + (bounds[i]-lo)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// CountAtOrBelow returns, from one consistent snapshot, the number of
// observations that landed in buckets whose upper bound is <= le, the
// total observation count, and the effective bound actually used (the
// largest bucket bound <= le; NaN when le is below every bound, in
// which case below is 0). It is the primitive an SLO error-rate needs:
// "how many requests finished within the threshold".
func (h *Histogram) CountAtOrBelow(le float64) (below, total uint64, bound float64) {
	counts := h.snapshot()
	bound = math.NaN()
	for i, b := range h.bounds {
		if b <= le {
			below += counts[i]
			bound = b
		}
	}
	for _, c := range counts {
		total += c
	}
	return below, total, bound
}

// write renders the histogram: cumulative le buckets, _sum and _count.
// _count always equals the +Inf bucket because both derive from the
// same snapshot.
func (h *Histogram) write(w io.Writer, name, labels string) {
	counts := h.snapshot()
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+formatFloat(bound)+`"`),
			fmt.Sprintf("%d", cum))
	}
	cum += counts[len(h.bounds)]
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), fmt.Sprintf("%d", cum))
	writeSample(w, name+"_sum", labels, formatFloat(h.Sum()))
	writeSample(w, name+"_count", labels, fmt.Sprintf("%d", cum))
}

// joinLabels appends extra to a pre-rendered label string.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}
