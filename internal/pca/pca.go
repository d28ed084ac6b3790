// Package pca implements principal component analysis: the optimal
// orthogonal rotation of §IV of the paper. The trained model exposes the
// descending-eigenvalue rotation matrix R (Theorem 1: it maximizes variance
// in the leading dimensions and minimizes it in the residual dimensions),
// the per-dimension variances σ²ᵢ of the rotated space needed by the
// DDCres error bound (Eq. 3), and variance-explained accounting used to
// pick between PCA- and quantization-based methods (Exp-1 discussion).
//
// A Model is also the one type every rotating comparator holds its rotation
// in: ADSampling's random orthogonal matrix is a mean-free Model (Mean nil,
// no variances), which projects by the rotation alone.
package pca

import (
	"errors"
	"math"
	"math/rand"

	"resinfer/internal/matrix"
	"resinfer/internal/par"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Model is a trained PCA rotation.
type Model struct {
	Dim      int           // data dimensionality D
	Mean     []float32     // training mean, subtracted before rotation; nil for a mean-free model
	Rotation *store.Matrix // D x D; row i is the i-th principal direction
	// Variances holds the variance of each rotated dimension in descending
	// order (the eigenvalues of the covariance matrix). Variances[i] is the
	// σ²ᵢ of Eq. 3.
	Variances []float64
	// Sigmas caches sqrt(Variances) as float32 for the per-query suffix
	// table of DDCres.
	Sigmas []float32
}

// Config controls training.
type Config struct {
	// SampleSize caps how many rows are used to estimate the covariance
	// matrix (the paper samples 1M points for large datasets, following
	// Faiss practice). 0 means use all rows.
	SampleSize int
	Seed       int64
}

// Train fits a PCA model on the rows of the given matrices, visited in
// argument order: the model of several matrices is the model of the one
// matrix holding all their rows, bit for bit.
func Train(cfg Config, data ...*store.Matrix) (*Model, error) {
	n := 0
	for _, m := range data {
		if m == nil || m.Dim() != data[0].Dim() {
			return nil, errors.New("pca: empty or ragged data")
		}
		n += m.Rows()
	}
	if n == 0 {
		return nil, errors.New("pca: empty data")
	}
	if cfg.SampleSize > 0 && cfg.SampleSize < n {
		sample, err := store.New(cfg.SampleSize, data[0].Dim())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i, j := range rng.Perm(n)[:cfg.SampleSize] {
			k := 0
			for j >= data[k].Rows() {
				j -= data[k].Rows()
				k++
			}
			sample.SetRow(i, data[k].Row(j))
		}
		data = []*store.Matrix{sample}
	}
	cov, mean64, err := matrix.Covariance(data...)
	if err != nil {
		return nil, err
	}
	vals, vecs, err := matrix.EigenSym(cov)
	if err != nil {
		return nil, err
	}
	d := len(vals)
	m := &Model{
		Dim:       d,
		Mean:      make([]float32, d),
		Rotation:  vecs.F32(),
		Variances: vals,
		Sigmas:    make([]float32, d),
	}
	for i, v := range mean64 {
		m.Mean[i] = float32(v)
	}
	for i, v := range vals {
		if v < 0 {
			v = 0 // rounding noise on degenerate directions
		}
		m.Variances[i] = v
		m.Sigmas[i] = float32(math.Sqrt(v))
	}
	return m, nil
}

// Project rotates x into the PCA basis: y = R (x - mean), y = R x for a
// mean-free model. The output has the same dimension; callers truncate to
// the first d coordinates for a d-dimensional projection.
func (m *Model) Project(x []float32) ([]float32, error) {
	dst := make([]float32, m.Dim)
	if err := m.ProjectInto(dst, x, make([]float32, m.Dim)); err != nil {
		return nil, err
	}
	return dst, nil
}

// ProjectInto is Project writing into dst using cent as centering scratch
// (both of length Dim), allocating nothing. dst and cent must not alias x.
func (m *Model) ProjectInto(dst, x, cent []float32) error {
	if len(x) != m.Dim {
		return errors.New("pca: dimension mismatch")
	}
	if len(dst) != m.Dim || len(cent) != m.Dim {
		return errors.New("pca: scratch dimension mismatch")
	}
	m.project(dst, x, cent)
	return nil
}

// project is ProjectInto once the lengths are known to match.
func (m *Model) project(dst, x, cent []float32) {
	if m.Mean != nil {
		vec.SubInto(cent, x, m.Mean)
		x = cent
	}
	vec.MatVec(dst, m.Rotation.Flat(), m.Dim, x)
}

// ProjectMatrix rotates every row of data into a fresh flat matrix using
// up to `workers` goroutines (GOMAXPROCS when <= 0). Rotating n rows costs
// n·D² multiply-adds: at 4 000 × 420 on two cores 0.05–0.06 s, about a
// third of a PCA-based DCO's one-time cost, next to 0.10 s of Train.
func (m *Model) ProjectMatrix(data *store.Matrix, workers int) (*store.Matrix, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("pca: empty data")
	}
	if data.Dim() != m.Dim {
		return nil, errors.New("pca: dimension mismatch")
	}
	out, err := store.New(data.Rows(), m.Dim)
	if err != nil {
		return nil, err
	}
	par.Range(data.Rows(), workers, func(lo, hi int) {
		cent := make([]float32, m.Dim)
		for i := lo; i < hi; i++ {
			m.project(out.Row(i), data.Row(i), cent)
		}
	})
	return out, nil
}

// Unproject maps rows this model projected back to the space they were
// projected from, x = Rᵀy + mean, into a fresh matrix: what the rows were,
// up to float rounding.
func (m *Model) Unproject(rotated *store.Matrix) (*store.Matrix, error) {
	inv := &Model{Dim: m.Dim, Rotation: m.Rotation.Clone()} // Rᵀ
	for i := 0; i < m.Dim; i++ {
		for j := 0; j < i; j++ {
			a, b := inv.Rotation.Row(i), inv.Rotation.Row(j)
			a[j], b[i] = b[i], a[j]
		}
	}
	out, err := inv.ProjectMatrix(rotated, 0)
	for i := 0; err == nil && m.Mean != nil && i < out.Rows(); i++ {
		vec.Axpy(1, m.Mean, out.Row(i))
	}
	return out, err
}

// Refit returns a model for rows this model did not train on: it shares m's
// mean and rotation (the same slices, not copies) and takes Variances and
// Sigmas from rotated, rows already projected by m. Variances[i] is the
// mean of yᵢ² over those rows — the second moment about m's mean, which is
// what the Eq. 3 error term −2⟨q_r, x_r⟩ needs when the rows have drifted
// off that mean, and equals the eigenvalue when rotated is m's own
// training set.
func (m *Model) Refit(rotated *store.Matrix) *Model {
	out := &Model{
		Dim: m.Dim, Mean: m.Mean, Rotation: m.Rotation,
		Variances: make([]float64, m.Dim), Sigmas: make([]float32, m.Dim),
	}
	for i := 0; i < rotated.Rows(); i++ {
		for j, y := range rotated.Row(i) {
			out.Variances[j] += float64(y) * float64(y)
		}
	}
	for j := range out.Variances {
		out.Variances[j] /= float64(rotated.Rows())
		out.Sigmas[j] = float32(math.Sqrt(out.Variances[j]))
	}
	return out
}

// VarianceExplained returns the fraction of total variance captured by the
// first d rotated dimensions — e.g. the paper quotes 67% at d=32 for GIST
// and 18% for GLOVE, which predicts whether DDCres/DDCpca or DDCopq wins.
func (m *Model) VarianceExplained(d int) float64 {
	if d <= 0 {
		return 0
	}
	if d > m.Dim {
		d = m.Dim
	}
	var lead, total float64
	for i, v := range m.Variances {
		total += v
		if i < d {
			lead += v
		}
	}
	if total == 0 {
		return 1
	}
	return lead / total
}
