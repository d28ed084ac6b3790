package ivf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/persist"
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
	ds, _, idx := getFixtures(t)
	loaded, err := decodeBytes(encodeBytes(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.NList() != idx.NList() || loaded.Dim() != idx.Dim() {
		t.Fatal("metadata lost")
	}
	dco, _ := core.NewExact(ds.Matrix())
	a, _, err := newEvalSearch(idx, dco).search(ds.Queries[0], 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newEvalSearch(loaded, dco).search(ds.Queries[0], 10, 8)
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
	_, _, idx := getFixtures(t)
	good := encodeBytes(t, idx)
	if _, err := decodeBytes(good[:len(good)/2]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte("NOPEXY"), good[6:]...)
	if _, err := decodeBytes(bad); err == nil {
		t.Fatal("expected magic error")
	}
	// A list count that disagrees with the centroids already decoded is
	// refused before it sizes anything: the stream ends right behind it.
	nlOff := len(indexMagic) + 16 + len("RIMTX1") + 24 + 4*idx.NList()*idx.Dim()
	lying := bytes.Clone(good[:nlOff+8])
	binary.LittleEndian.PutUint64(lying[nlOff:], 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBytes(lying)
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("list count 1<<31 over %d centroids: err = %v, want a corruption error", idx.NList(), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("list count 1<<31 with no lists: allocated %d bytes", grew)
	}
}
