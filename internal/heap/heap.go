// Package heap provides the two bounded queues AKNN search needs: a
// max-heap result queue Q whose worst distance is the pruning threshold
// tau consumed by every DCO, and the sorted beam that drives best-first
// graph search. Both are specialized to (id, dist) pairs and avoid
// interface boxing on the hot path.
package heap

import "math"

// Item is an (id, distance) pair.
type Item struct {
	ID   int
	Dist float32
}

// ResultQueue is the bounded max-heap over candidate distances described in
// §I of the paper: it keeps the K closest items seen so far and exposes the
// current K-th distance as the pruning threshold tau.
type ResultQueue struct {
	k     int
	items []Item // max-heap on Dist
}

// NewResultQueue returns a result queue retaining the k closest items.
// k must be positive.
func NewResultQueue(k int) *ResultQueue {
	if k <= 0 {
		k = 1
	}
	return &ResultQueue{k: k, items: make([]Item, 0, k)}
}

// Len returns the number of stored items.
func (q *ResultQueue) Len() int { return len(q.items) }

// Full reports whether the queue holds k items.
func (q *ResultQueue) Full() bool { return len(q.items) >= q.k }

// Threshold returns tau: the largest stored distance once the queue is
// full, or +Inf while it is filling. Any candidate with distance > tau can
// never enter the queue.
func (q *ResultQueue) Threshold() float32 {
	if !q.Full() {
		return float32(math.Inf(1))
	}
	return q.items[0].Dist
}

// Push offers (id, dist) to the queue. It reports whether the item was
// admitted. The backing array is allocated once at NewResultQueue and
// only ever re-sliced here, so steady-state pushes are allocation-free.
//
//resinfer:noalloc
func (q *ResultQueue) Push(id int, dist float32) bool {
	if len(q.items) < q.k {
		q.items = append(q.items, Item{ID: id, Dist: dist})
		q.siftUp(len(q.items) - 1)
		return true
	}
	if dist >= q.items[0].Dist {
		return false
	}
	q.items[0] = Item{ID: id, Dist: dist}
	q.siftDown(0)
	return true
}

// PopMax removes and returns the current worst (largest-distance) item.
// ok is false when the queue is empty.
//
//resinfer:noalloc
func (q *ResultQueue) PopMax() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top, true
}

// Sorted drains the queue and returns its contents ordered by ascending
// distance (the final AKNN answer). The queue is empty afterwards.
func (q *ResultQueue) Sorted() []Item {
	return q.AppendSorted(make([]Item, 0, len(q.items)))
}

// AppendSorted drains the queue, appending its contents to dst in
// ascending distance order, and returns the extended slice. The queue is
// empty afterwards. With a dst of sufficient capacity this is the
// allocation-free variant of Sorted.
func (q *ResultQueue) AppendSorted(dst []Item) []Item {
	start := len(dst)
	n := len(q.items)
	dst = append(dst, q.items[:n]...) // grow by n; values overwritten below
	for i := n - 1; i >= 0; i-- {
		item, _ := q.PopMax()
		dst[start+i] = item
	}
	return dst
}

// Reset re-bounds the queue to keep the k closest items and empties it,
// retaining the backing storage so pooled searches allocate nothing.
func (q *ResultQueue) Reset(k int) {
	if k <= 0 {
		k = 1
	}
	q.k = k
	if cap(q.items) < k {
		q.items = make([]Item, 0, k)
	} else {
		q.items = q.items[:0]
	}
}

func (q *ResultQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Dist >= q.items[i].Dist {
			return
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *ResultQueue) siftDown(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && q.items[l].Dist > q.items[largest].Dist {
			largest = l
		}
		if r < n && q.items[r].Dist > q.items[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		q.items[i], q.items[largest] = q.items[largest], q.items[i]
		i = largest
	}
}

// Beam is the candidate list of best-first graph search, DiskANN's sorted
// list of size L (Subramanya et al., NeurIPS 2019): the ef closest items
// offered so far in ascending distance, each marked once it is expanded.
// Pop hands out the closest unexpanded item, and the search has converged
// when none is left. One list does the work of a frontier min-heap beside
// a result max-heap: an item the beam evicts is at or beyond its
// threshold, where the two-heap loop would stop. Call Reset before use.
type Beam struct {
	ef    int
	items []beamItem // ascending Dist; equal distances in push order
	next  int        // no item before next is unexpanded
}

type beamItem struct {
	Item
	expanded bool
}

// Reset re-bounds the beam to the ef closest items and empties it,
// retaining the backing storage so pooled searches allocate nothing.
func (b *Beam) Reset(ef int) {
	if ef <= 0 {
		ef = 1
	}
	b.ef, b.next = ef, 0
	if cap(b.items) < ef {
		b.items = make([]beamItem, 0, ef)
	} else {
		b.items = b.items[:0]
	}
}

// Threshold returns the ef-th distance once the beam is full, or +Inf
// while it is filling: the bound a candidate must beat to be admitted.
func (b *Beam) Threshold() float32 {
	if len(b.items) < b.ef {
		return float32(math.Inf(1))
	}
	return b.items[len(b.items)-1].Dist
}

// Push offers (id, dist) and reports whether it was admitted: always while
// the beam is filling, then only below Threshold, evicting the farthest
// item. It goes after any items at an equal distance.
//
//resinfer:noalloc
func (b *Beam) Push(id int, dist float32) bool {
	n := len(b.items)
	if n == b.ef {
		if dist >= b.items[n-1].Dist {
			return false
		}
	} else {
		b.items = b.items[:n+1]
	}
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); b.items[m].Dist <= dist {
			lo = m + 1
		} else {
			hi = m
		}
	}
	copy(b.items[lo+1:], b.items[lo:])
	b.items[lo] = beamItem{Item: Item{ID: id, Dist: dist}}
	b.next = min(b.next, lo)
	return true
}

// Pop marks the closest unexpanded item expanded and returns it. ok is
// false when every item in the beam has been expanded.
//
//resinfer:noalloc
func (b *Beam) Pop() (Item, bool) {
	for b.next < len(b.items) && b.items[b.next].expanded {
		b.next++
	}
	if b.next == len(b.items) {
		return Item{}, false
	}
	b.items[b.next].expanded = true
	return b.items[b.next].Item, true
}

// AppendSorted appends the beam's items to dst in ascending distance order
// and returns the extended slice.
func (b *Beam) AppendSorted(dst []Item) []Item {
	for _, it := range b.items {
		dst = append(dst, it.Item)
	}
	return dst
}
