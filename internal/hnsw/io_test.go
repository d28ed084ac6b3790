package hnsw

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"resinfer/internal/core"
	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// encodeBytes and decodeBytes run the codec the way the index containers
// do: Encode and Decode on a persist stream.
func encodeBytes(t testing.TB, idx *Index) []byte {
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	idx.Encode(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeBytes(b []byte) (*Index, error) {
	return Decode(persist.NewReader(bytes.NewReader(b)))
}

func TestIndexRoundTrip(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, err := Build(store.MustFromRows(ds.Data[:800]), Config{M: 8, EfConstruction: 50, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeBytes(encodeBytes(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.Dim() != idx.Dim() ||
		loaded.Entry() != idx.Entry() || loaded.MaxLevel() != idx.MaxLevel() {
		t.Fatal("metadata lost")
	}
	// Identical searches.
	dco, _ := core.NewExact(store.MustFromRows(ds.Data[:800]))
	a, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newEvalSearch(loaded, dco).search(ds.Queries[0], 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("search results differ after round trip")
		}
	}
}

func TestIndexReadRejectsCorruption(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, _ := Build(store.MustFromRows(ds.Data[:200]), Config{M: 8, EfConstruction: 40, Seed: 53})
	good := encodeBytes(t, idx)
	if _, err := decodeBytes(good[:len(good)/2]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte("WRONGXY"), good[7:]...)
	if _, err := decodeBytes(bad); err == nil {
		t.Fatal("expected magic error")
	}
}

// TestDecodeRejectsLyingHeader: every header word a walk trusts is checked
// at decode. The top level is the telling one: a stream that claims level
// 1<<34 used to load, and the next search spun through 1<<34 empty levels
// of greedy descent.
func TestDecodeRejectsLyingHeader(t *testing.T) {
	ds, _, _ := getFixtures(t)
	idx, err := Build(store.MustFromRows(ds.Data[:200]), Config{M: 8, EfConstruction: 40, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeBytes(t, idx)
	loaded, err := decodeBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, loaded), good) {
		t.Fatal("a valid stream does not round-trip bit-identically")
	}
	// Header layout after the magic: dim, m, mMax0, efCon, entry, maxLevel,
	// node count — one little-endian int64 each.
	word := func(i int) int { return len(indexMagic) + 8*i }
	type lie struct {
		name string
		off  int
		v    int64
	}
	cases := []lie{
		{"maxLevel 1<<34", word(5), 1 << 34},
		{"maxLevel negative", word(5), -1},
		{"maxLevel above the entry point's", word(5), int64(idx.MaxLevel()) + 1},
		{"m zero", word(1), 0},
		{"mMax0 negative", word(2), -4},
		{"efCon zero", word(3), 0},
	}
	if idx.MaxLevel() > 0 {
		cases = append(cases, lie{"maxLevel below a node's levels", word(5), int64(idx.MaxLevel()) - 1})
	}
	for _, c := range cases {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[c.off:], uint64(c.v))
		if _, err := decodeBytes(bad); err == nil {
			t.Errorf("%s: Decode accepted the stream", c.name)
		}
	}
	// A node count with nothing behind it must not size the adjacency.
	huge := bytes.Clone(good[:word(7)])
	binary.LittleEndian.PutUint64(huge[word(6):], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeBytes(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("node count 1<<31 with no nodes: Decode accepted the stream")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("node count 1<<31 with no nodes: allocated %d bytes", grew)
	}
}

// TestPackedAdjacency: whether built or loaded, the lists are consecutive
// sub-slices of one backing array in (node, level) order, each with cap ==
// len, so an append through Neighbors cannot reach the next list; and the
// packing is invisible in the bytes.
func TestPackedAdjacency(t *testing.T) {
	ds, _, _ := getFixtures(t)
	built, err := Build(store.MustFromRows(ds.Data[:600]), Config{M: 4, EfConstruction: 40, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeBytes(t, built)
	loaded, err := decodeBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, loaded), good) {
		t.Fatal("Encode(Decode(Encode(g))) differs from Encode(g)")
	}
	for name, idx := range map[string]*Index{"built": built, "loaded": loaded} {
		var next unsafe.Pointer // one past the previous non-empty list
		var prev []int32
		for node := int32(0); int(node) < idx.Len(); node++ {
			for l := range idx.links[node] {
				lst := idx.Neighbors(node, l)
				if cap(lst) != len(lst) {
					t.Fatalf("%s: node %d level %d has cap %d > len %d", name, node, l, cap(lst), len(lst))
				}
				if len(lst) == 0 {
					continue
				}
				if next != nil && unsafe.Pointer(unsafe.SliceData(lst)) != next {
					t.Fatalf("%s: node %d level %d does not start where the previous list ends", name, node, l)
				}
				next = unsafe.Add(unsafe.Pointer(unsafe.SliceData(lst)), 4*len(lst))
				if prev != nil {
					first := lst[0]
					if _ = append(prev, -1); lst[0] != first {
						t.Fatalf("%s: an append to the list before node %d level %d overwrote it", name, node, l)
					}
				}
				prev = lst
			}
		}
		if int64(uintptr(next)-uintptr(unsafe.Pointer(unsafe.SliceData(idx.Neighbors(0, 0))))) != idx.GraphBytes() {
			t.Fatalf("%s: the lists do not fill one slab of GraphBytes() = %d", name, idx.GraphBytes())
		}
	}
}
