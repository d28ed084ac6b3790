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

func TestMinQueueOrder(t *testing.T) {
	q := NewMinQueue(0)
	for _, d := range []float32{5, 1, 4, 2, 3} {
		q.Push(int(d), d)
	}
	prev := float32(-1)
	for q.Len() > 0 {
		it, ok := q.PopMin()
		if !ok {
			t.Fatal("unexpected empty")
		}
		if it.Dist < prev {
			t.Fatalf("PopMin out of order: %v after %v", it.Dist, prev)
		}
		prev = it.Dist
	}
	if _, ok := q.PopMin(); ok {
		t.Fatal("PopMin on empty must report !ok")
	}
}

// Property: MinQueue pops in non-decreasing order for any input stream.
func TestMinQueueSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewMinQueue(-1)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			q.Push(i, float32(r.NormFloat64()))
		}
		prev := float32(math.Inf(-1))
		for q.Len() > 0 {
			it, _ := q.PopMin()
			if it.Dist < prev {
				return false
			}
			prev = it.Dist
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinQueuePeekAndReset(t *testing.T) {
	q := NewMinQueue(4)
	q.Push(1, 2)
	q.Push(2, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset must empty the queue")
	}
	if _, ok := q.PopMin(); ok {
		t.Fatal("PopMin after Reset must report !ok")
	}
	q.Push(3, 5)
	if it, ok := q.PopMin(); !ok || it.ID != 3 {
		t.Fatalf("PopMin after Reset and Push = %+v", it)
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
