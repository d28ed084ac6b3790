package quant

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"resinfer/internal/matrix"
	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

func gaussData(r *rand.Rand, n, d int) *store.Matrix {
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			// Correlated coordinates make OPQ's rotation worth learning.
			base := r.NormFloat64()
			row[j] = float32(base + 0.3*r.NormFloat64())
		}
		data[i] = row
	}
	return store.MustFromRows(data)
}

// subMat returns a copy of the first n rows of m.
func subMat(m *store.Matrix, n int) *store.Matrix {
	out, err := store.New(n, m.Dim())
	if err != nil {
		panic(err)
	}
	copy(out.Flat(), m.Flat()[:n*m.Dim()])
	return out
}

func TestSubspaceBounds(t *testing.T) {
	b := subspaceBounds(10, 3)
	want := []int{0, 4, 7, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	b = subspaceBounds(8, 4)
	if b[4] != 8 || b[1] != 2 {
		t.Fatalf("even bounds = %v", b)
	}
}

func TestTrainPQErrors(t *testing.T) {
	if _, err := TrainPQ(nil, PQConfig{M: 2}); err == nil {
		t.Fatal("expected empty error")
	}
	data := gaussData(rand.New(rand.NewSource(1)), 300, 8)
	if _, err := TrainPQ(data, PQConfig{M: 0}); err == nil {
		t.Fatal("expected M<1 error")
	}
	if _, err := TrainPQ(data, PQConfig{M: 9}); err == nil {
		t.Fatal("expected M>dim error")
	}
	if _, err := TrainPQ(data, PQConfig{M: 2, Nbits: 12}); err == nil {
		t.Fatal("expected Nbits error")
	}
	if _, err := TrainPQ(subMat(data, 10), PQConfig{M: 2, Nbits: 8}); err == nil {
		t.Fatal("expected too-few-rows error")
	}
}

func TestPQEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := gaussData(r, 500, 12)
	pq, err := TrainPQ(data, PQConfig{M: 4, Nbits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Decoding a centroid-exact vector must be lossless.
	comp := make([]float32, 12)
	for m := 0; m < pq.M; m++ {
		copy(comp[pq.Bounds[m]:pq.Bounds[m+1]], pq.Codebooks[m][3])
	}
	code, err := pq.Encode(comp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := pq.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if vec.L2Sq(comp, dec) > 1e-12 {
		t.Fatal("centroid vector must round-trip exactly")
	}
}

// reconstructionError is ||x - decode(encode(x))||², the quantization
// residual energy.
func reconstructionError(pq *PQ, x []float32) (float32, error) {
	code, err := pq.Encode(x)
	if err != nil {
		return 0, err
	}
	dec, err := pq.Decode(code)
	if err != nil {
		return 0, err
	}
	return vec.L2Sq(x, dec), nil
}

func TestPQReconstructionBetterThanRandomCode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := gaussData(r, 800, 16)
	pq, err := TrainPQ(data, PQConfig{M: 4, Nbits: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var encErr, randErr float64
	for ri := 0; ri < 100; ri++ {
		row := data.Row(ri)
		e, err := reconstructionError(pq, row)
		if err != nil {
			t.Fatal(err)
		}
		encErr += float64(e)
		rc := make([]byte, pq.M)
		for m := range rc {
			rc[m] = byte(r.Intn(pq.K))
		}
		dec, _ := pq.Decode(rc)
		randErr += float64(vec.L2Sq(row, dec))
	}
	if encErr >= randErr {
		t.Fatalf("encoded error %v must beat random-code error %v", encErr, randErr)
	}
}

// Property: LUT asymmetric distance equals the explicit distance between q
// and the decoded vector.
func TestLUTMatchesDecodedDistance(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := gaussData(r, 400, 10)
	pq, err := TrainPQ(data, PQConfig{M: 5, Nbits: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		q := make([]float32, 10)
		for i := range q {
			q[i] = float32(rr.NormFloat64())
		}
		lut, err := pq.BuildLUT(q)
		if err != nil {
			return false
		}
		x := data.Row(rr.Intn(data.Rows()))
		code, _ := pq.Encode(x)
		dec, _ := pq.Decode(code)
		got := float64(lut.Distance(code))
		want := vec.L2Sq64(q, dec)
		return math.Abs(got-want) < 1e-2*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodeAllLayout(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := gaussData(r, 100, 8)
	pq, err := TrainPQ(data, PQConfig{M: 4, Nbits: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	codes, err := pq.EncodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 100*4 {
		t.Fatalf("codes len = %d", len(codes))
	}
	c7, _ := pq.Encode(data.Row(7))
	for m := 0; m < 4; m++ {
		if codes[7*4+m] != c7[m] {
			t.Fatal("EncodeAll layout mismatch")
		}
	}
}

func TestCodeBytes(t *testing.T) {
	pq := &PQ{M: 16, Nbits: 8}
	if got := pq.CodeBytes(1000); got != 16000 {
		t.Fatalf("CodeBytes = %d", got)
	}
	pq4 := &PQ{M: 16, Nbits: 4}
	if got := pq4.CodeBytes(1000); got != 8000 {
		t.Fatalf("CodeBytes nbits=4 = %d", got)
	}
}

func TestOPQImprovesOverIdentityStart(t *testing.T) {
	// On anisotropic, correlated data the learned rotation should not be
	// worse than plain PQ (identity rotation).
	r := rand.New(rand.NewSource(6))
	n, d := 1500, 16
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		shared := r.NormFloat64() * 3
		for j := range row {
			row[j] = float32(shared*math.Pow(0.8, float64(j)) + 0.4*r.NormFloat64())
		}
		data[i] = row
	}
	pqCfg := PQConfig{M: 4, Nbits: 5, Seed: 11}
	mat := store.MustFromRows(data)
	pq, err := TrainPQ(mat, pqCfg)
	if err != nil {
		t.Fatal(err)
	}
	var pqErr float64
	for _, row := range data[:300] {
		e, _ := reconstructionError(pq, row)
		pqErr += float64(e)
	}
	pqErr /= 300

	opq, err := TrainOPQ(mat, OPQConfig{PQ: pqCfg, Iters: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var opqErr float64 // the objective OPQ minimizes, over the same rows
	for _, row := range data[:300] {
		y, err := opq.Rotate(row) // an isometry: the error is that of the original space
		if err != nil {
			t.Fatal(err)
		}
		e, err := reconstructionError(opq.PQ, y)
		if err != nil {
			t.Fatal(err)
		}
		opqErr += float64(e)
	}
	opqErr /= 300
	if opqErr > pqErr*1.05 {
		t.Fatalf("OPQ error %v should not exceed PQ error %v", opqErr, pqErr)
	}
}

func TestOPQRotationOrthonormal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := gaussData(r, 600, 12)
	opq, err := TrainOPQ(data, OPQConfig{PQ: PQConfig{M: 3, Nbits: 4}, Iters: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The rotation is held as float32: orthonormal to float32 rounding.
	rot := matrix.New(12, 12)
	for i, v := range opq.Rotation.Flat() {
		rot.Data[i] = float64(v)
	}
	if !rot.IsOrthonormal(1e-5) {
		t.Fatal("OPQ rotation must stay orthonormal")
	}
}

func TestOPQLUTMatchesDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := gaussData(r, 500, 10)
	opq, err := TrainOPQ(data, OPQConfig{PQ: PQConfig{M: 5, Nbits: 4}, Iters: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := data.Row(0)
	lut, err := opq.BuildLUT(q)
	if err != nil {
		t.Fatal(err)
	}
	x := data.Row(42)
	code, err := opq.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	rotQ, _ := opq.Rotate(q)
	dec, _ := opq.PQ.Decode(code)
	want := vec.L2Sq64(rotQ, dec)
	got := float64(lut.Distance(code))
	if math.Abs(got-want) > 1e-2*(1+want) {
		t.Fatalf("OPQ LUT distance %v, want %v", got, want)
	}
}

func TestOPQEmptyData(t *testing.T) {
	if _, err := TrainOPQ(nil, OPQConfig{PQ: PQConfig{M: 2}}); err == nil {
		t.Fatal("expected empty error")
	}
}

func BenchmarkLUTDistance(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	data := gaussData(r, 400, 32)
	pq, err := TrainPQ(data, PQConfig{M: 8, Nbits: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lut, _ := pq.BuildLUT(data.Row(0))
	code, _ := pq.Encode(data.Row(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lut.Distance(code)
	}
}

// TestDecodePQRejectsCorruptShape: Encode and BuildLUT slice vectors by
// Bounds and hand the pieces to a distance kernel next to a centroid, so a
// decoded PQ whose shape words disagree with each other must be refused,
// not left to panic inside the first search.
func TestDecodePQRejectsCorruptShape(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	data := gaussData(r, 200, 8)
	roundTrip := func(corrupt func(*PQ)) error {
		pq, err := TrainPQ(data, PQConfig{M: 3, Nbits: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		corrupt(pq)
		var buf bytes.Buffer
		w := persist.NewWriter(&buf)
		pq.EncodeTo(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		_, err = DecodePQ(persist.NewReader(&buf))
		return err
	}
	if err := roundTrip(func(*PQ) {}); err != nil {
		t.Fatalf("a valid PQ does not round-trip: %v", err)
	}
	for name, corrupt := range map[string]func(*PQ){
		"empty subspace":      func(pq *PQ) { pq.Bounds[1] = pq.Bounds[2] },
		"bounds start past 0": func(pq *PQ) { pq.Bounds[0] = 1 },
		"short centroid":      func(pq *PQ) { pq.Codebooks[0][3] = pq.Codebooks[0][3][:1] },
		"nbits beyond a byte": func(pq *PQ) { pq.Nbits, pq.K = 9, 512 },
		"subspace count lies": func(pq *PQ) { pq.M = 1 << 31 },
	} {
		if err := roundTrip(corrupt); err == nil {
			t.Errorf("%s: DecodePQ accepted the stream", name)
		}
	}
}
