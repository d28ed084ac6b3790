package stream

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"resinfer/internal/heap"
	"resinfer/internal/persist"
	"resinfer/internal/vec"
)

func vecOf(vals ...float32) []float32 { return vals }

func TestMemtableAddOverwriteRemove(t *testing.T) {
	m := NewMemtable(2)
	if !m.Add(7, vecOf(1, 2)) {
		t.Fatal("first add should append")
	}
	if !m.Add(9, vecOf(3, 4)) {
		t.Fatal("second add should append")
	}
	if m.Add(7, vecOf(5, 6)) {
		t.Fatal("overwrite should not append")
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	i := 0
	for ; i < m.Len(); i++ {
		if m.ID(i) == 7 {
			break
		}
	}
	if got := m.Vec(i); got[0] != 5 || got[1] != 6 {
		t.Fatalf("overwritten row = %v, want [5 6]", got)
	}
	if !m.Remove(9) {
		t.Fatal("remove of present id should report true")
	}
	if m.Remove(9) {
		t.Fatal("second remove should report false")
	}
	if m.Len() != 1 || m.Has(9) || !m.Has(7) {
		t.Fatalf("after remove: len=%d has9=%v has7=%v", m.Len(), m.Has(9), m.Has(7))
	}
}

func TestMemtableRemoveSwapsLast(t *testing.T) {
	m := NewMemtable(1)
	for id := 0; id < 5; id++ {
		m.Add(id, vecOf(float32(id)))
	}
	m.Remove(1)
	if m.Len() != 4 {
		t.Fatalf("len = %d, want 4", m.Len())
	}
	for i := 0; i < m.Len(); i++ {
		id := m.ID(i)
		if got := m.Vec(i)[0]; got != float32(id) {
			t.Fatalf("row %d: id %d but value %v", i, id, got)
		}
	}
}

func TestMemtableCompactAfter(t *testing.T) {
	m := NewMemtable(1)
	m.Add(1, vecOf(1))
	m.Add(2, vecOf(2))
	_, _, snap := m.Snapshot()
	m.Add(3, vecOf(3))   // fresh after snapshot
	m.Add(1, vecOf(1.5)) // overwrite after snapshot
	rest := m.CompactAfter(snap)
	if rest.Len() != 2 {
		t.Fatalf("survivors = %d, want 2 (fresh + overwrite)", rest.Len())
	}
	if !rest.Has(3) || !rest.Has(1) || rest.Has(2) {
		t.Fatalf("survivors have 3=%v 1=%v 2=%v", rest.Has(3), rest.Has(1), rest.Has(2))
	}
	if rest.seq != m.seq {
		t.Fatalf("sequence must carry over: %d vs %d", rest.seq, m.seq)
	}
}

func TestMemtableSnapshotIsDeepCopy(t *testing.T) {
	m := NewMemtable(2)
	m.Add(4, vecOf(1, 1))
	m.Add(7, vecOf(2, 3))
	ids, vecs, _ := m.Snapshot()
	m.Add(4, vecOf(9, 9)) // overwrite in place after the snapshot
	m.Remove(7)           // swap-with-last after the snapshot
	if !slices.Equal(vecs, []float32{1, 1, 2, 3}) {
		t.Fatalf("snapshot rows mutated to %v", vecs)
	}
	if !slices.Equal(ids, []int{4, 7}) {
		t.Fatalf("snapshot ids = %v", ids)
	}
}

func TestMemtableScanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim, n, k = 16, 40, 5
	m := NewMemtable(dim)
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()
		}
		m.Add(100+i, rows[i])
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = rng.Float32()
	}
	for _, ip := range []bool{false, true} {
		rq := heap.NewResultQueue(k)
		if comp := m.Scan(q, ip, rq); comp != n {
			t.Fatalf("comparisons = %d, want %d", comp, n)
		}
		got := rq.Sorted()
		type pair struct {
			id  int
			key float32
		}
		want := make([]pair, n)
		for i, r := range rows {
			key := vec.L2Sq(q, r)
			if ip {
				key = -vec.Dot(q, r)
			}
			want[i] = pair{100 + i, key}
		}
		for i := 0; i < len(want); i++ {
			for j := i + 1; j < len(want); j++ {
				if want[j].key < want[i].key {
					want[i], want[j] = want[j], want[i]
				}
			}
		}
		for i := 0; i < k; i++ {
			if got[i].ID != want[i].id || got[i].Dist != want[i].key {
				t.Fatalf("ip=%v hit %d: got (%d,%v), want (%d,%v)",
					ip, i, got[i].ID, got[i].Dist, want[i].id, want[i].key)
			}
		}
	}
}

func TestMemtableCodecRoundTrip(t *testing.T) {
	m := NewMemtable(3)
	m.Add(11, vecOf(1, 2, 3))
	m.Add(5, vecOf(4, 5, 6))
	m.Add(11, vecOf(7, 8, 9)) // overwrite

	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	m.Encode(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMemtable(persist.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Dim() != 3 || got.seq != m.seq {
		t.Fatalf("decoded len=%d dim=%d seq=%d", got.Len(), got.Dim(), got.seq)
	}
	for i := 0; i < got.Len(); i++ {
		id := got.ID(i)
		if !m.Has(id) {
			t.Fatalf("decoded unknown id %d", id)
		}
		var orig []float32
		for j := 0; j < m.Len(); j++ {
			if m.ID(j) == id {
				orig = m.Vec(j)
			}
		}
		for j, v := range got.Vec(i) {
			if v != orig[j] {
				t.Fatalf("id %d coord %d: %v != %v", id, j, v, orig[j])
			}
		}
	}
}

func TestMemtableDecodeRejectsCorruption(t *testing.T) {
	m := NewMemtable(2)
	m.Add(1, vecOf(1, 2))
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	m.Encode(pw)
	_ = pw.Flush()
	raw := buf.Bytes()
	if _, err := DecodeMemtable(persist.NewReader(bytes.NewReader(raw[:len(raw)-3]))); err == nil {
		t.Fatal("truncated memtable must not decode")
	}
}
