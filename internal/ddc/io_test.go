package ddc

import (
	"bytes"
	"math"
	"testing"

	"resinfer/internal/core"
	"resinfer/internal/flat"
	"resinfer/internal/matrix"
	"resinfer/internal/pca"
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
	loaded, err := DecodeRes(reader(encodeBytes(t, orig)))
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
	if _, err := DecodeRes(reader(b[:len(b)/3])); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte("YYYYYY"), b[6:]...)
	if _, err := DecodeRes(reader(bad)); err == nil {
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
	loaded, err := DecodePCA(reader(encodeBytes(t, orig)))
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
	if _, err := DecodePCA(reader(encodeBytes(t, orig))); err == nil {
		t.Fatal("expected classifier-width error")
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
	loaded, err := DecodeRes(reader(encodeBytes(t, orig)))
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
	cov, mean64, err := matrix.Covariance(store.MustFromRows(rows))
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

	first, err := DecodeRes(reader(legacy.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(first.model.Rotation.Flat(), model.Rotation.Flat()) {
		t.Fatal("decoded rotation is not the float64 rotation rounded to nearest float32")
	}
	b2 := encodeBytes(t, first)
	second, err := DecodeRes(reader(b2))
	if err != nil {
		t.Fatal(err)
	}
	b3 := encodeBytes(t, second)
	if len(b2) != legacy.Len() {
		t.Fatalf("re-encoded stream is %d bytes, the float64 stream %d: the wire format changed", len(b2), legacy.Len())
	}
	if !bytes.Equal(b2, b3) {
		t.Fatal("second round trip is not bit-stable")
	}

	idx, err := flat.New(len(rows), dim)
	if err != nil {
		t.Fatal(err)
	}
	// One evaluator per comparator, Reset per query, as Index.walk does.
	preEv := pre.NewEvaluator()
	evs := map[string]core.ResettableEvaluator{"first": first.NewEvaluator(), "second": second.NewEvaluator()}
	for qi, q := range ds.Queries {
		want, err := idx.SearchEval(primed(t, preEv, q), 10, len(rows), nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, ev := range evs {
			got, err := idx.SearchEval(primed(t, ev, q), 10, len(rows), nil)
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
