package ddc

import (
	"bytes"
	"math"
	"testing"

	"resinfer/internal/flat"
	"resinfer/internal/matrix"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

func TestResRoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewRes(ds.Matrix(), ResConfig{Seed: 41, InitD: 8, DeltaD: 16, Multiplier: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRes(&buf)
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
	evA, _ := orig.NewQuery(q)
	evB, _ := loaded.NewQuery(q)
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
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadRes(bytes.NewReader(b[:len(b)/3])); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte("YYYYYY"), b[6:]...)
	if _, err := ReadRes(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestPCADCORoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewPCA(ds.Matrix(), ds.Train[:30], PCAConfig{
		Seed: 45, Collect: CollectConfig{K: 10, NegPerQuery: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPCA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Levels()) != len(orig.Levels()) {
		t.Fatal("levels lost")
	}
	q := ds.Queries[1]
	evA, _ := orig.NewQuery(q)
	evB, _ := loaded.NewQuery(q)
	for id := 0; id < 50; id++ {
		da, pa := evA.Compare(id, 2.0)
		db, pb := evB.Compare(id, 2.0)
		if da != db || pa != pb {
			t.Fatalf("PCADCO Compare(%d) differs after round trip", id)
		}
	}
}

func TestOPQDCORoundTrip(t *testing.T) {
	ds := getDS(t)
	orig, err := NewOPQ(ds.Matrix(), ds.Train[:30], OPQConfig{
		M: 8, Nbits: 4, OPQIters: 1, Seed: 47,
		Collect: CollectConfig{K: 10, NegPerQuery: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadOPQ(&buf, ds.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[2]
	evA, _ := orig.NewQuery(q)
	evB, _ := loaded.NewQuery(q)
	for id := 0; id < 50; id++ {
		da, pa := evA.Compare(id, 2.0)
		db, pb := evB.Compare(id, 2.0)
		if da != db || pa != pb {
			t.Fatalf("OPQDCO Compare(%d) differs after round trip", id)
		}
	}
	// Wrong data binding must be rejected.
	var buf2 bytes.Buffer
	if _, err := orig.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOPQ(&buf2, store.MustFromRows(ds.Data[:10])); err == nil {
		t.Fatal("expected data-mismatch error")
	}
	if _, err := ReadOPQ(bytes.NewReader(nil), nil); err == nil {
		t.Fatal("expected missing-data error")
	}
}

func TestResRoundTripPreservesExactDistances(t *testing.T) {
	ds := getDS(t)
	orig, _ := NewRes(store.MustFromRows(ds.Data[:300]), ResConfig{Seed: 49})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRes(&buf)
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

// TestResDecodesFloat64RotationStream hand-encodes the RIRES2/RIPCA1 stream
// a version that kept rotations in float64 wrote — rotation straight from
// the eigensolver, so almost no element is float32-representable, and rows
// rotated with float64 accumulation — and checks that it loads: the
// rotation narrows to the nearest float32, a flat ddc-res scan returns the
// same top-k as the comparator this version holds in memory for that
// state, and re-encoding is bit-stable from the first round trip on.
func TestResDecodesFloat64RotationStream(t *testing.T) {
	ds := getDS(t)
	rows := ds.Data[:500]
	const dim = 64
	cov, mean64, err := matrix.Covariance(rows)
	if err != nil {
		t.Fatal(err)
	}
	vals, rot64, err := matrix.EigenSym(cov)
	if err != nil {
		t.Fatal(err)
	}
	model := &pca.Model{Dim: dim, Mean: make([]float32, dim), Rotation: rot64.F32(),
		Variances: vals, Sigmas: make([]float32, dim)}
	for i := range vals {
		model.Mean[i] = float32(mean64[i])
		model.Variances[i] = math.Max(vals[i], 0)
		model.Sigmas[i] = float32(math.Sqrt(model.Variances[i]))
	}
	inexact := 0
	for _, v := range rot64.Data {
		if float64(float32(v)) != v {
			inexact++
		}
	}
	if inexact < len(rot64.Data)/2 {
		t.Fatalf("only %d of %d rotation elements are not float32-representable", inexact, len(rot64.Data))
	}
	rotated, _ := store.New(len(rows), dim)
	cent := make([]float64, dim)
	for i, row := range rows {
		for j, v := range row {
			cent[j] = float64(v - model.Mean[j])
		}
		y, err := rot64.Apply(cent)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range y {
			rotated.Row(i)[j] = float32(v)
		}
	}
	pre, err := newResFromRotated(rotated, model, ResConfig{InitD: 8, DeltaD: 16})
	if err != nil {
		t.Fatal(err)
	}

	var legacy bytes.Buffer
	pw := persist.NewWriter(&legacy)
	pw.Magic("RIRES2")
	pw.Magic("RIPCA1")
	pw.Int(dim)
	pw.F32s(model.Mean)
	pw.Magic("RIMAT1")
	pw.Int(dim)
	pw.Int(dim)
	pw.F64s(rot64.Data)
	pw.F64s(model.Variances)
	pw.F32s(model.Sigmas)
	rotated.Encode(pw)
	pw.F32s(pre.norms)
	pw.F64(float64(pre.m))
	pw.Int(pre.initD)
	pw.Int(pre.deltaD)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	first, err := ReadRes(bytes.NewReader(legacy.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(first.model.Rotation.Flat(), model.Rotation.Flat()) {
		t.Fatal("decoded rotation is not the float64 rotation rounded to nearest float32")
	}
	var b2, b3 bytes.Buffer
	if _, err := first.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	second, err := ReadRes(bytes.NewReader(b2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.WriteTo(&b3); err != nil {
		t.Fatal(err)
	}
	if b2.Len() != legacy.Len() {
		t.Fatalf("re-encoded stream is %d bytes, the float64 stream %d: the wire format changed", b2.Len(), legacy.Len())
	}
	if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
		t.Fatal("second round trip is not bit-stable")
	}

	idx, err := flat.New(len(rows), dim)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		want, _, err := idx.Search(pre, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]*Res{"first": first, "second": second} {
			got, _, err := idx.Search(r, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query %d, %s decode: %d hits, want %d", qi, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d, %s decode: hit %d = %+v, want %+v", qi, name, i, got[i], want[i])
				}
			}
		}
	}
}
