package heap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestResultQueueThresholdWhileFilling(t *testing.T) {
	q := NewResultQueue(3)
	if !math.IsInf(float64(q.Threshold()), 1) {
		t.Fatal("threshold must be +Inf while filling")
	}
	q.Push(1, 5)
	q.Push(2, 3)
	if q.Full() {
		t.Fatal("queue should not be full with 2/3 items")
	}
	q.Push(3, 8)
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Threshold() != 8 {
		t.Fatalf("threshold = %v, want 8", q.Threshold())
	}
}

func TestResultQueueRejectsWorse(t *testing.T) {
	q := NewResultQueue(2)
	q.Push(1, 1)
	q.Push(2, 2)
	if q.Push(3, 3) {
		t.Fatal("must reject dist worse than threshold")
	}
	if !q.Push(4, 0.5) {
		t.Fatal("must accept better dist")
	}
	if q.Threshold() != 1 {
		t.Fatalf("threshold = %v, want 1", q.Threshold())
	}
}

func TestResultQueueSortedAscending(t *testing.T) {
	q := NewResultQueue(5)
	dists := []float32{9, 2, 7, 4, 1, 8, 3}
	for i, d := range dists {
		q.Push(i, d)
	}
	got := q.Sorted()
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	want := []float32{1, 2, 3, 4, 7}
	for i := range got {
		if got[i].Dist != want[i] {
			t.Fatalf("Sorted[%d] = %v, want %v", i, got[i].Dist, want[i])
		}
	}
	if q.Len() != 0 {
		t.Fatal("Sorted must drain the queue")
	}
}

func TestResultQueueKOne(t *testing.T) {
	q := NewResultQueue(1)
	q.Push(1, 10)
	q.Push(2, 5)
	q.Push(3, 20)
	got := q.Sorted()
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("got %+v, want id 2", got)
	}
}

func TestResultQueueZeroKClamped(t *testing.T) {
	q := NewResultQueue(0)
	q.Push(7, 1)
	if q.Len() != 1 {
		t.Fatal("k<=0 should clamp to 1")
	}
}

// Property: ResultQueue(k) over any stream returns exactly the k smallest
// distances (matching a sort-based oracle).
func TestResultQueueMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		k := 1 + r.Intn(20)
		dists := make([]float32, n)
		q := NewResultQueue(k)
		for i := range dists {
			dists[i] = float32(r.Float64() * 100)
			q.Push(i, dists[i])
		}
		got := q.Sorted()
		sorted := append([]float32(nil), dists...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Dist != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPopMaxEmpty(t *testing.T) {
	q := NewResultQueue(2)
	if _, ok := q.PopMax(); ok {
		t.Fatal("PopMax on empty must report !ok")
	}
}

// The beam is the candidate frontier of graph search: with room for every
// push it pops like a min-queue, closest first, and reports !ok once every
// item has been handed out.
func TestMinQueueOrder(t *testing.T) {
	var b Beam
	b.Reset(8)
	for _, d := range []float32{5, 1, 4, 2, 3} {
		b.Push(int(d), d)
	}
	prev := float32(-1)
	for i := 0; i < 5; i++ {
		it, ok := b.Pop()
		if !ok {
			t.Fatalf("Pop %d reported empty", i)
		}
		if it.Dist < prev {
			t.Fatalf("Pop out of order: %v after %v", it.Dist, prev)
		}
		prev = it.Dist
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("Pop with every item expanded must report !ok")
	}
}

// Property: a beam with room for every push pops each item once, in
// non-decreasing order, for any input stream.
func TestMinQueueSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		var b Beam
		b.Reset(n)
		for i := 0; i < n; i++ {
			if !b.Push(i, float32(r.NormFloat64())) {
				return false
			}
		}
		prev := float32(math.Inf(-1))
		for i := 0; i < n; i++ {
			it, ok := b.Pop()
			if !ok || it.Dist < prev {
				return false
			}
			prev = it.Dist
		}
		_, ok := b.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: over any stream of pushes and pops, Beam(ef) admits exactly
// what ResultQueue(ef) admits, at the same threshold, and holds the same
// distances; Pop hands out each held item once, closest unexpanded first
// and equal distances in push order.
// Distances are drawn from a few values so that ties are common.
func TestBeamMatchesResultQueue(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ef := 1 + r.Intn(20)
		var b Beam
		b.Reset(ef)
		q := NewResultQueue(ef)
		popped := map[int]bool{}
		// pop checks one Pop against the beam's contents: it hands out the
		// first item not yet handed out, by distance and then push order
		// (ids rise with pushes), and !ok means there is none.
		pop := func() (more, good bool) {
			it, ok := b.Pop()
			first := Item{ID: -1}
			for _, h := range b.AppendSorted(nil) {
				if !popped[h.ID] && (first.ID < 0 || h.Dist < first.Dist || h.Dist == first.Dist && h.ID < first.ID) {
					first = h
				}
			}
			if !ok {
				return false, first.ID < 0
			}
			popped[it.ID] = true
			return true, first.ID == it.ID
		}
		for i, n := 0, 1+r.Intn(300); i < n; i++ {
			if r.Intn(3) == 0 {
				if _, good := pop(); !good {
					return false
				}
				continue
			}
			d := float32(r.Intn(8))
			if b.Push(i, d) != q.Push(i, d) || b.Threshold() != q.Threshold() {
				return false
			}
		}
		held, want := b.AppendSorted(nil), q.Sorted()
		if len(held) != len(want) {
			return false
		}
		for i := range want {
			if held[i].Dist != want[i].Dist {
				return false
			}
		}
		for {
			more, good := pop()
			if !good {
				return false
			}
			if !more {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkResultQueuePush(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	dists := make([]float32, 4096)
	for i := range dists {
		dists[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewResultQueue(100)
		for j, d := range dists {
			q.Push(j, d)
		}
	}
}
