package matrix

import (
	"errors"

	"resinfer/internal/persist"
	"resinfer/internal/store"
)

const matMagic = "RIMAT1"

// EncodeF32 writes a rotation to w. The stream holds float64 (the format
// predates float32 rotations), so every element is widened, which is exact.
func EncodeF32(w *persist.Writer, m *store.Matrix) {
	w.Magic(matMagic)
	w.Int(m.Rows())
	w.Int(m.Dim())
	w.Int(len(m.Flat()))
	for _, v := range m.Flat() {
		w.F64(float64(v))
	}
}

// DecodeF32 reads a rotation written by EncodeF32 — or by a version of
// this library that kept rotations in float64 — narrowing each element to
// float32.
func DecodeF32(r *persist.Reader) (*store.Matrix, error) {
	r.Magic(matMagic)
	rows := r.Int()
	cols := r.Int()
	vals := r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 || rows > persist.MaxSliceLen/cols || len(vals) != rows*cols {
		return nil, errors.New("matrix: corrupt encoded matrix")
	}
	flat := make([]float32, len(vals))
	for i, v := range vals {
		flat[i] = float32(v)
	}
	return store.FromFlat(flat, rows, cols)
}
