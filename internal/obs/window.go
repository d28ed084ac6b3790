package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Window is a sliding-window histogram estimator: the same fixed-bucket
// shape as Histogram, but observations age out after the window
// duration instead of accumulating forever. It is built from a ring of
// sub-window slots; the window advances by whole slots, so estimates
// cover between (slots-1)/slots and slots/slots of the nominal window.
//
// Unlike Histogram, Window is mutex-guarded: it is meant for low-rate
// off-path feeds (shadow quality measurements, not per-request
// latencies), where a mutex is simpler than per-slot atomics and the
// contention is negligible.
type Window struct {
	mu       sync.Mutex
	bounds   []float64 // finite ascending upper bounds
	slots    []winSlot // ring; len = slot count
	slotDur  time.Duration
	headTick int64 // absolute slot index of slots head
	head     int   // ring position of the current slot
	now      func() time.Time
}

// winSlot is one sub-window's worth of observations.
type winSlot struct {
	counts []uint64 // len(bounds)+1; last is +Inf
	n      uint64
	sum    float64
}

// NewWindow builds a sliding-window estimator covering roughly window,
// divided into slots sub-windows. bounds follow NewHistogram's rules.
func NewWindow(bounds []float64, window time.Duration, slots int) *Window {
	if slots < 2 {
		panic("obs: Window needs at least 2 slots")
	}
	if window <= 0 {
		panic("obs: Window needs a positive duration")
	}
	// Validate via NewHistogram's checks, then keep our own copy.
	b := NewHistogram(bounds).bounds
	w := &Window{
		bounds:  b,
		slots:   make([]winSlot, slots),
		slotDur: window / time.Duration(slots),
		now:     time.Now,
	}
	for i := range w.slots {
		w.slots[i].counts = make([]uint64, len(b)+1)
	}
	return w
}

// setClock injects a clock for rotation-boundary tests.
func (w *Window) setClock(now func() time.Time) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// rotate advances the ring to the slot containing the current time,
// zeroing every slot skipped over. Callers hold w.mu.
func (w *Window) rotate() {
	tick := w.now().UnixNano() / int64(w.slotDur)
	if tick <= w.headTick {
		return
	}
	steps := tick - w.headTick
	if steps > int64(len(w.slots)) {
		steps = int64(len(w.slots))
	}
	for i := int64(0); i < steps; i++ {
		w.head = (w.head + 1) % len(w.slots)
		s := &w.slots[w.head]
		for j := range s.counts {
			s.counts[j] = 0
		}
		s.n, s.sum = 0, 0
	}
	w.headTick = tick
}

// Observe records one value into the current slot.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	i := sort.SearchFloat64s(w.bounds, v)
	s := &w.slots[w.head]
	s.counts[i]++
	s.n++
	s.sum += v
}

// Count returns the number of observations currently inside the window.
func (w *Window) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	var total uint64
	for si := range w.slots {
		total += w.slots[si].n
	}
	return total
}

// Mean returns the average of the observations inside the window
// (0 when empty).
func (w *Window) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	var total uint64
	var sum float64
	for si := range w.slots {
		total += w.slots[si].n
		sum += w.slots[si].sum
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// Quantile estimates the p-th quantile over the observations inside the
// window, with Histogram's interpolation rules (0 when empty).
func (w *Window) Quantile(p float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate()
	counts := make([]uint64, len(w.bounds)+1)
	for si := range w.slots {
		for i, c := range w.slots[si].counts {
			counts[i] += c
		}
	}
	return bucketQuantile(w.bounds, counts, p)
}

// EWMA is an exponentially weighted moving average with atomic loads
// and CAS updates; the zero value is usable and reports NaN until the
// first observation seeds it.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// higher alpha weights recent observations more.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("obs: EWMA alpha must be in (0, 1]")
	}
	e := &EWMA{alpha: alpha}
	e.bits.Store(math.Float64bits(math.NaN()))
	return e
}

// Observe folds v into the average (the first observation seeds it).
func (e *EWMA) Observe(v float64) {
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		var nw float64
		if math.IsNaN(cur) {
			nw = v
		} else {
			nw = cur + e.alpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// Value returns the current average, or NaN before any observation.
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load()) }
