// Package persist provides the little-endian binary encoding used by every
// Save/Load pair in the library (indexes, rotations, quantizers,
// classifiers). A Writer/Reader carries its first error so call sites can
// chain writes and check once at the end, and every stream starts with a
// magic string and version so stale files fail loudly instead of decoding
// garbage.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrBadMagic reports a stream that does not start with the expected
// section marker.
var ErrBadMagic = errors.New("persist: bad magic")

// MaxSliceLen bounds decoded slice lengths as a corruption guard.
const MaxSliceLen = 1 << 31

// Writer encodes values to an underlying stream, retaining the first
// error.
type Writer struct {
	w    *bufio.Writer
	err  error
	refs map[any]int // Shared: each key written so far, by table index
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Magic writes a fixed section marker.
func (w *Writer) Magic(s string) { w.write([]byte(s)) }

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.write(buf[:])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.write(buf[:])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F32 writes a float32.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// F64 writes a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.write([]byte{b})
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Int(len(p))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(xs []float32) {
	w.Int(len(xs))
	for _, v := range xs {
		w.F32(v)
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(xs []float64) {
	w.Int(len(xs))
	for _, v := range xs {
		w.F64(v)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(xs []int) {
	w.Int(len(xs))
	for _, v := range xs {
		w.I64(int64(v))
	}
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(xs []int32) {
	w.Int(len(xs))
	for _, v := range xs {
		w.U32(uint32(v))
	}
}

// F32Mat writes a length-prefixed [][]float32.
func (w *Writer) F32Mat(rows [][]float32) {
	w.Int(len(rows))
	for _, r := range rows {
		w.F32s(r)
	}
}

// blockFloats is how many float32s F32Block converts per chunk (64 KiB of
// encoded bytes), trading a small scratch buffer for large sequential
// writes instead of one 4-byte write per element.
const blockFloats = 16384

// F32Block writes a length-prefixed []float32 as one bulk little-endian
// byte stream. It encodes the same logical value as F32s but converts in
// 64 KiB chunks, so flat vector buffers serialize at memory bandwidth
// instead of element-at-a-time.
func (w *Writer) F32Block(xs []float32) {
	w.Int(len(xs))
	if w.err != nil {
		return
	}
	buf := make([]byte, 0, 4*blockFloats)
	for len(xs) > 0 {
		n := len(xs)
		if n > blockFloats {
			n = blockFloats
		}
		buf = buf[:4*n]
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		w.write(buf)
		if w.err != nil {
			return
		}
		xs = xs[n:]
	}
}

// Shared writes the marker of an object several parts of a stream hold, so
// the stream carries it once. The first call with a key writes a "new"
// marker and returns true: the caller encodes the object next. Every later
// call writes the table index of that first copy and returns false. One
// table spans the stream, whatever nests inside it.
func (w *Writer) Shared(key any) bool {
	if i, ok := w.refs[key]; ok {
		w.Int(i)
		return false
	}
	if w.refs == nil {
		w.refs = map[any]int{}
	}
	w.refs[key] = len(w.refs)
	w.Int(-1)
	return true
}

// Reader decodes values from an underlying stream, retaining the first
// error.
type Reader struct {
	r    *bufio.Reader
	err  error
	objs []any // Shared: the objects decoded so far, in table order
}

// Shared reads what Writer.Shared wrote: decode's object after a "new"
// marker, or the object an earlier call returned for a back-reference. A
// back-reference past the table, or to an object of another type, is an
// error. Every table entry costs the stream eight bytes.
func Shared[T any](r *Reader, decode func() (T, error)) (T, error) {
	var zero T
	i := r.Int()
	if r.err != nil {
		return zero, r.err
	}
	if i == -1 {
		slot := len(r.objs)
		r.objs = append(r.objs, nil) // numbered before what nests inside it, as written
		v, err := decode()
		if err != nil {
			return zero, err
		}
		r.objs[slot] = v
		return v, nil
	}
	if i < 0 || i >= len(r.objs) {
		r.err = fmt.Errorf("persist: back-reference %d with %d shared objects decoded", i, len(r.objs))
		return zero, r.err
	}
	v, ok := r.objs[i].(T)
	if !ok {
		r.err = fmt.Errorf("persist: back-reference %d is a %T, want a %T", i, r.objs[i], zero)
		return zero, r.err
	}
	return v, nil
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	_, r.err = io.ReadFull(r.r, p)
}

// Magic consumes and verifies a section marker.
func (r *Reader) Magic(s string) {
	buf := make([]byte, len(s))
	r.read(buf)
	if r.err == nil && string(buf) != s {
		r.err = fmt.Errorf("%w: want %q got %q", ErrBadMagic, s, string(buf))
	}
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	var buf [4]byte
	r.read(buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	var buf [8]byte
	r.read(buf[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as int64.
func (r *Reader) Int() int { return int(r.I64()) }

// Len reads a slice length and validates it.
func (r *Reader) Len() int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > MaxSliceLen) {
		r.err = fmt.Errorf("persist: implausible length %d", n)
		return 0
	}
	return n
}

// F32 reads a float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool {
	var buf [1]byte
	r.read(buf[:])
	return buf[0] != 0
}

// A length prefix is a claim, not a fact: a reader that allocates the
// claimed size up front lets eight bytes from a peer or a damaged file
// reserve gigabytes. Every slice reader below therefore grows its result
// as payload actually arrives — at most growElems elements ahead of what
// has been read, doubling after that — so allocation stays proportional to
// the bytes the stream delivered, and a stream that ends early yields nil
// plus the read error, never a zero-filled slice of the claimed length.

// growElems is how many elements a slice reader allocates before any of
// them has been read, and the least it grows by afterwards.
const growElems = blockFloats

// grown returns s with spare capacity for more elements: double the
// current capacity, at least growElems, never beyond the n the stream
// claims — so a slice that fills ends with capacity exactly n.
func grown[T any](s []T, n int) []T {
	if len(s) < cap(s) {
		return s
	}
	c := 2 * cap(s)
	if c < growElems {
		c = growElems
	}
	if c > n {
		c = n
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// readSlice reads a length prefix and that many elements, one get each.
func readSlice[T any](r *Reader, get func() T) []T {
	n := r.Len()
	out := []T{}
	for len(out) < n && r.err == nil {
		out = grown(out, n)
		for len(out) < cap(out) && r.err == nil {
			out = append(out, get())
		}
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	out := []byte{}
	for len(out) < n && r.err == nil {
		out = grown(out, n)
		r.read(out[len(out):cap(out)])
		out = out[:cap(out)]
	}
	if r.err != nil {
		return nil
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 { return readSlice(r, r.F32) }

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 { return readSlice(r, r.F64) }

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int { return readSlice(r, r.Int) }

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	return readSlice(r, func() int32 { return int32(r.U32()) })
}

// F32Block reads a length-prefixed []float32 written by F32Block.
func (r *Reader) F32Block() []float32 {
	n := r.Len()
	out := []float32{}
	buf := make([]byte, 0, 4*min(n, blockFloats))
	for len(out) < n && r.err == nil {
		out = grown(out, n)
		c := cap(out) - len(out)
		if c > blockFloats {
			c = blockFloats
		}
		buf = buf[:4*c]
		r.read(buf)
		for i := 0; i < c; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F32Mat reads a length-prefixed [][]float32.
func (r *Reader) F32Mat() [][]float32 { return readSlice(r, r.F32s) }
