package pca

import (
	"errors"

	"resinfer/internal/matrix"
	"resinfer/internal/persist"
)

const modelMagic = "RIPCA1"

// Encode writes the model to w.
func (m *Model) Encode(w *persist.Writer) {
	w.Magic(modelMagic)
	w.Int(m.Dim)
	w.F32s(m.Mean)
	matrix.EncodeF32(w, m.Rotation)
	w.F64s(m.Variances)
	w.F32s(m.Sigmas)
}

// Decode reads a model previously written by Encode.
func Decode(r *persist.Reader) (*Model, error) {
	r.Magic(modelMagic)
	dim := r.Int()
	mean := r.F32s()
	rot, err := matrix.DecodeF32(r)
	if err != nil {
		return nil, err
	}
	variances := r.F64s()
	sigmas := r.F32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if dim <= 0 || len(mean) != dim || len(variances) != dim ||
		len(sigmas) != dim || rot.Rows() != dim || rot.Dim() != dim {
		return nil, errors.New("pca: corrupt encoded model")
	}
	return &Model{Dim: dim, Mean: mean, Rotation: rot, Variances: variances, Sigmas: sigmas}, nil
}
