package pca

import (
	"errors"
	"math"

	"resinfer/internal/persist"
	"resinfer/internal/store"
)

// Version 2 writes the mean and rotation once per stream, however many
// models share them, and the rotation in float32; Sigmas are recomputed.
const modelMagic = "RIPCA2"

// Encode writes the model to w. Models that share a rotation share a mean
// (Refit is how they come to share), so the pair is written once per
// stream, keyed by the rotation; only Variances are the model's own.
func (m *Model) Encode(w *persist.Writer) {
	w.Magic(modelMagic)
	if w.Shared(m.Rotation) {
		w.F32s(m.Mean)
		m.Rotation.Encode(w)
	}
	w.F64s(m.Variances)
}

// Decode reads a model previously written by Encode. A model whose mean and
// rotation an earlier model of the stream wrote shares that model's slices,
// as Refit's do.
func Decode(r *persist.Reader) (*Model, error) {
	r.Magic(modelMagic)
	basis, err := persist.Shared(r, func() (*Model, error) {
		mean := r.F32s()
		rot, err := store.Decode(r)
		if err != nil {
			return nil, err
		}
		if rot.Rows() != rot.Dim() || (len(mean) != 0 && len(mean) != rot.Dim()) {
			return nil, errors.New("pca: corrupt encoded model")
		}
		if len(mean) == 0 {
			mean = nil // mean-free: projects by the rotation alone
		}
		return &Model{Dim: rot.Dim(), Mean: mean, Rotation: rot}, nil
	})
	if err != nil {
		return nil, err
	}
	variances := r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := &Model{Dim: basis.Dim, Mean: basis.Mean, Rotation: basis.Rotation}
	if len(variances) == 0 && m.Mean == nil {
		return m, nil // a mean-free model has no spectrum
	}
	if len(variances) != m.Dim || m.Mean == nil {
		return nil, errors.New("pca: corrupt encoded model")
	}
	m.Variances, m.Sigmas = variances, make([]float32, m.Dim)
	for i, v := range variances {
		if !(v >= 0) {
			return nil, errors.New("pca: corrupt encoded variance")
		}
		m.Sigmas[i] = float32(math.Sqrt(v)) // as Train and Refit compute them
	}
	return m, nil
}
