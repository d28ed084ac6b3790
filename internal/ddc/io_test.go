package ddc

import (
	"bytes"
	"strings"
	"testing"

	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// encodeBytes and reader run the codecs the way the index containers do:
// Encode and Decode* on a persist stream.
func encodeBytes(t testing.TB, c interface{ Encode(*persist.Writer) }) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := persist.NewWriter(&buf)
	c.Encode(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reader(b []byte) *persist.Reader { return persist.NewReader(bytes.NewReader(b)) }

func TestResRoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewRes(ds.Matrix(), ResConfig{Seed: 41, InitD: 8, DeltaD: 16, Multiplier: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeRes(reader(encodeBytes(t, orig)), orig.Rotated(), orig.Model())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dim() != orig.Dim() || loaded.Size() != orig.Size() {
		t.Fatal("metadata")
	}
	if loaded.m != orig.m || loaded.initD != orig.initD || loaded.deltaD != orig.deltaD {
		t.Fatal("tuning lost")
	}
	// Identical Compare behavior on a few probes.
	q := ds.Queries[0]
	evA := primed(t, orig.NewEvaluator(), q)
	evB := primed(t, loaded.NewEvaluator(), q)
	for id := 0; id < 50; id++ {
		tau := float32(1.0)
		da, pa := evA.Compare(id, tau)
		db, pb := evB.Compare(id, tau)
		if da != db || pa != pb {
			t.Fatalf("Compare(%d) differs after round trip", id)
		}
	}
}

func TestResRoundTripCorruption(t *testing.T) {
	ds := getDS(t)
	orig, _ := NewRes(store.MustFromRows(ds.Data[:200]), ResConfig{Seed: 43})
	b := encodeBytes(t, orig)
	if _, err := DecodeRes(reader(b[:len(b)/3]), orig.Rotated(), orig.Model()); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte("YYYYYY"), b[6:]...)
	if _, err := DecodeRes(reader(bad), orig.Rotated(), orig.Model()); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := DecodeRes(reader(b), orig.Rotated(), nil); err == nil {
		t.Fatal("expected an error for a stream with no model")
	}
}

func TestPCADCORoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewPCA(ds.Matrix(), ds.Train[:30], PCAConfig{Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodePCA(reader(encodeBytes(t, orig)), orig.rotated, orig.model)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Levels()) != len(orig.Levels()) {
		t.Fatal("levels lost")
	}
	q := ds.Queries[1]
	evA := primed(t, orig.NewEvaluator(), q)
	evB := primed(t, loaded.NewEvaluator(), q)
	for id := 0; id < 50; id++ {
		da, pa := evA.Compare(id, 2.0)
		db, pb := evB.Compare(id, 2.0)
		if da != db || pa != pb {
			t.Fatalf("PCADCO Compare(%d) differs after round trip", id)
		}
	}
	// Compare scores two features per level; a classifier of another width
	// would index past its weights in the first search.
	c := orig.classifiers[0]
	c.W, c.Mean, c.Std = append(c.W, 0), append(c.Mean, 0), append(c.Std, 1)
	if _, err := DecodePCA(reader(encodeBytes(t, orig)), orig.rotated, orig.model); err == nil {
		t.Fatal("expected classifier-width error")
	}
}

func TestOPQDCORoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewOPQ(ds.Matrix(), ds.Train[:30], OPQConfig{
		M: 8, Nbits: 4, OPQIters: 1, Seed: 47,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeBytes(t, orig)
	loaded, err := DecodeOPQ(reader(enc), ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[2]
	evA := primed(t, orig.NewEvaluator(), q)
	evB := primed(t, loaded.NewEvaluator(), q)
	for id := 0; id < 50; id++ {
		da, pa := evA.Compare(id, 2.0)
		db, pb := evB.Compare(id, 2.0)
		if da != db || pa != pb {
			t.Fatalf("OPQDCO Compare(%d) differs after round trip", id)
		}
	}
	// Wrong data binding must be rejected.
	if _, err := DecodeOPQ(reader(enc), store.MustFromRows(ds.Data[:10])); err == nil {
		t.Fatal("expected data-mismatch error")
	}
	if _, err := DecodeOPQ(reader(nil), nil); err == nil {
		t.Fatal("expected missing-data error")
	}
	// A code indexes a K-entry row of the lookup table (K = 16 here), and
	// Compare scores three features: both are checked at decode.
	orig.codes[0] = 200
	if _, err := DecodeOPQ(reader(encodeBytes(t, orig)), ds.Matrix()); err == nil {
		t.Fatal("expected PQ-code error")
	}
	orig.codes[0] = 0
	c := orig.clf
	c.W, c.Mean, c.Std = c.W[:2], c.Mean[:2], c.Std[:2]
	if _, err := DecodeOPQ(reader(encodeBytes(t, orig)), ds.Matrix()); err == nil {
		t.Fatal("expected classifier-width error")
	}
}

func TestResRoundTripPreservesExactDistances(t *testing.T) {
	ds := getDS(t)
	orig, _ := NewRes(store.MustFromRows(ds.Data[:300]), ResConfig{Seed: 49})
	loaded, err := DecodeRes(reader(encodeBytes(t, orig)), orig.Rotated(), orig.Model())
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(orig.Rotated().Row(5), loaded.Rotated().Row(5)) {
		t.Fatal("rotated vectors differ")
	}
	if !vec.Equal(orig.Norms(), loaded.Norms()) {
		t.Fatal("norms differ")
	}
}

// TestDecodeResRejectsV2Stream: a RIRES2 stream carried its own model and
// rotated rows; version 3 reads the index's. The old stream is refused, by
// an error that names both versions.
func TestDecodeResRejectsV2Stream(t *testing.T) {
	ds := getDS(t)
	orig, err := NewRes(store.MustFromRows(ds.Data[:100]), ResConfig{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	pw := persist.NewWriter(&v2)
	pw.Magic("RIRES2")
	orig.Model().Encode(pw)
	orig.Rotated().Encode(pw)
	pw.F32s(orig.Norms())
	pw.F64(3)
	pw.Int(32)
	pw.Int(32)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = DecodeRes(reader(v2.Bytes()), orig.Rotated(), orig.Model())
	if err == nil || !strings.Contains(err.Error(), "RIRES2") || !strings.Contains(err.Error(), "RIRES3") {
		t.Fatalf("decoding a RIRES2 stream: %v, want an error naming RIRES2 and RIRES3", err)
	}
}
