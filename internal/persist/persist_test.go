package persist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripScalars(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST1")
	w.U32(42)
	w.U64(1 << 40)
	w.I64(-7)
	w.Int(123456)
	w.F32(1.5)
	w.F64(-2.25)
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("TEST1")
	if r.U32() != 42 || r.U64() != 1<<40 || r.I64() != -7 || r.Int() != 123456 {
		t.Fatal("integer round trip failed")
	}
	if r.F32() != 1.5 || r.F64() != -2.25 {
		t.Fatal("float round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if r.String() != "hello" {
		t.Fatal("string round trip failed")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestRoundTripSlices(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f32s := []float32{1, -2, 3.5}
	f64s := []float64{math.Pi, -1}
	ints := []int{-5, 0, 99}
	i32s := []int32{7, -8}
	mat := [][]float32{{1, 2}, {3}}
	w.F32s(f32s)
	w.F64s(f64s)
	w.Ints(ints)
	w.I32s(i32s)
	w.F32Mat(mat)
	w.Bytes([]byte{9, 8})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	gotF32 := r.F32s()
	gotF64 := r.F64s()
	gotInts := r.Ints()
	gotI32 := r.I32s()
	gotMat := r.F32Mat()
	gotBytes := r.Bytes()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range f32s {
		if gotF32[i] != f32s[i] {
			t.Fatal("f32s")
		}
	}
	for i := range f64s {
		if gotF64[i] != f64s[i] {
			t.Fatal("f64s")
		}
	}
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Fatal("ints")
		}
	}
	for i := range i32s {
		if gotI32[i] != i32s[i] {
			t.Fatal("i32s")
		}
	}
	if len(gotMat) != 2 || gotMat[0][1] != 2 || gotMat[1][0] != 3 {
		t.Fatal("mat")
	}
	if gotBytes[0] != 9 || gotBytes[1] != 8 {
		t.Fatal("bytes")
	}
}

func TestMagicMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AAAA")
	_ = w.Flush()
	r := NewReader(&buf)
	r.Magic("BBBB")
	if !errors.Is(r.Err(), ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", r.Err())
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F32s([]float32{1, 2, 3, 4, 5})
	_ = w.Flush()
	b := buf.Bytes()
	r := NewReader(bytes.NewReader(b[:len(b)-3]))
	_ = r.F32s()
	if r.Err() == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(-1) // negative length
	_ = w.Flush()
	r := NewReader(&buf)
	_ = r.F32s()
	if r.Err() == nil {
		t.Fatal("negative length must error")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U32() // EOF
	first := r.Err()
	if first == nil {
		t.Fatal("expected EOF error")
	}
	_ = r.U64()
	_ = r.F32s()
	if r.Err() != first {
		t.Fatal("error must be sticky")
	}
}

// Property: arbitrary float32 matrices round-trip bit-exactly.
func TestMatrixRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(8)
		mat := make([][]float32, rows)
		for i := range mat {
			mat[i] = make([]float32, rng.Intn(16))
			for j := range mat[i] {
				mat[i][j] = math.Float32frombits(rng.Uint32())
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F32Mat(mat)
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		got := r.F32Mat()
		if r.Err() != nil || len(got) != len(mat) {
			return false
		}
		for i := range mat {
			if len(got[i]) != len(mat[i]) {
				return false
			}
			for j := range mat[i] {
				// Compare bit patterns: NaNs must survive too.
				if math.Float32bits(got[i][j]) != math.Float32bits(mat[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestF32BlockRoundTrip(t *testing.T) {
	// Cross the chunk boundary to exercise the multi-chunk path.
	xs := make([]float32, 16384*2+37)
	for i := range xs {
		xs[i] = float32(i)*0.5 - 1000
	}
	for _, in := range [][]float32{nil, {1.25}, xs} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.F32Block(in)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		out := r.F32Block()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("len %d want %d", len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("elem %d: %v want %v", i, out[i], in[i])
			}
		}
	}
}

func TestF32BlockMatchesF32s(t *testing.T) {
	// F32Block and F32s encode the same logical value with identical bytes.
	xs := []float32{1, -2.5, 3e7, 0}
	var a, b bytes.Buffer
	wa, wb := NewWriter(&a), NewWriter(&b)
	wa.F32Block(xs)
	wb.F32s(xs)
	wa.Flush()
	wb.Flush()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("F32Block must be byte-compatible with F32s")
	}
}

// TestLengthPrefixAloneAllocatesNothing: a length prefix is a claim. A
// stream that claims 1<<27 elements and then ends must fail fast with an
// EOF error and a nil slice, having allocated next to nothing — not the
// 512 MiB (and six seconds of zero-filling) the claim asks for.
func TestLengthPrefixAloneAllocatesNothing(t *testing.T) {
	var prefix bytes.Buffer
	w := NewWriter(&prefix)
	w.Int(1 << 27)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func(*Reader) bool{ // each reports whether it returned nil
		"Bytes":    func(r *Reader) bool { return r.Bytes() == nil },
		"F32s":     func(r *Reader) bool { return r.F32s() == nil },
		"F64s":     func(r *Reader) bool { return r.F64s() == nil },
		"Ints":     func(r *Reader) bool { return r.Ints() == nil },
		"I32s":     func(r *Reader) bool { return r.I32s() == nil },
		"F32Block": func(r *Reader) bool { return r.F32Block() == nil },
		"F32Mat":   func(r *Reader) bool { return r.F32Mat() == nil },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r := NewReader(bytes.NewReader(prefix.Bytes()))
		isNil := read(r)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err := r.Err(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want an EOF error", name, err)
		}
		if !isNil {
			t.Errorf("%s: returned a slice next to the error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for an 8-byte stream", name, grew)
		}
		if elapsed >= 100*time.Millisecond {
			t.Errorf("%s: took %v", name, elapsed)
		}
	}
}

// TestSliceReadersGrowToExactCapacity: growing with the payload must not
// leave a loaded index holding more memory than its slices need.
func TestSliceReadersGrowToExactCapacity(t *testing.T) {
	const n = 3*growElems + 17 // several growth steps, not a multiple of one
	var buf bytes.Buffer
	w := NewWriter(&buf)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	w.F32Block(xs)
	w.F32s(xs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for name, got := range map[string][]float32{"F32Block": r.F32Block(), "F32s": r.F32s()} {
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if len(got) != n || cap(got) != n {
			t.Fatalf("%s: len %d cap %d, want %d and %d", name, len(got), cap(got), n, n)
		}
		for i, v := range got {
			if v != xs[i] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, v, xs[i])
			}
		}
	}
}

// box is a shared object for the back-reference tests.
type box struct{ v []float32 }

func decodeBox(r *Reader) (*box, error) {
	b := &box{v: r.F32s()}
	return b, r.Err()
}

// TestSharedWritesEachObjectOnce: a key seen again is a back-reference,
// and decoding it returns the very object its first copy decoded to.
func TestSharedWritesEachObjectOnce(t *testing.T) {
	a, b := &box{v: []float32{1, 2}}, &box{v: []float32{3}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, x := range []*box{a, b, a, a, b} {
		if w.Shared(x) {
			w.F32s(x.v)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 5*8 + (8 + 4*2) + (8 + 4); buf.Len() != want {
		t.Errorf("stream holds %d bytes, want %d: five markers and two payloads", buf.Len(), want)
	}
	r := NewReader(&buf)
	var got []*box
	for range 5 {
		x, err := Shared(r, func() (*box, error) { return decodeBox(r) })
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, x)
	}
	if got[0] == got[1] || got[2] != got[0] || got[3] != got[0] || got[4] != got[1] {
		t.Error("back-references do not resolve to the objects their first copies decoded")
	}
	if got[0].v[1] != 2 || got[1].v[0] != 3 {
		t.Error("payloads did not round-trip")
	}
}

// TestSharedRejectsBadReferences: a back-reference the table cannot honour,
// or a shared object whose length prefix claims more than arrives, is an
// error — never a panic — having allocated next to nothing.
func TestSharedRejectsBadReferences(t *testing.T) {
	cases := map[string]struct {
		write func(w *Writer)
		read  func(r *Reader) error // decodes two shared objects
	}{
		"past the table": {
			write: func(w *Writer) { w.Int(-1); w.F32s([]float32{1}); w.Int(1) },
		},
		"negative": {
			write: func(w *Writer) { w.Int(-1); w.F32s([]float32{1}); w.Int(-2) },
		},
		"to its own unfinished slot": {
			write: func(w *Writer) { w.Int(-1); w.Int(0) },
			read: func(r *Reader) error {
				_, err := Shared(r, func() (*box, error) {
					if _, err := Shared(r, func() (*box, error) { return decodeBox(r) }); err != nil {
						return nil, err
					}
					return decodeBox(r)
				})
				return err
			},
		},
		"of the wrong type": {
			write: func(w *Writer) { w.Int(-1); w.F32s([]float32{1}); w.Int(0) },
			read: func(r *Reader) error {
				if _, err := Shared(r, func() (*box, error) { return decodeBox(r) }); err != nil {
					return err
				}
				_, err := Shared(r, func() (string, error) { return r.String(), r.Err() })
				return err
			},
		},
		"claims more than arrives": {
			write: func(w *Writer) { w.Int(-1); w.Int(1 << 27) },
		},
	}
	for name, c := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		c.write(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		read := c.read
		if read == nil {
			read = func(r *Reader) error {
				for range 2 {
					if _, err := Shared(r, func() (*box, error) { return decodeBox(r) }); err != nil {
						return err
					}
				}
				return nil
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(NewReader(bytes.NewReader(buf.Bytes())))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte stream", name, grew, buf.Len())
		}
	}
}
