// Package metric implements the reductions of §II-A: cosine similarity
// and (bounded) maximum inner product search transform into Euclidean
// nearest-neighbor search, so every distance computation method in this
// library applies to those metrics too.
//
//   - Cosine: normalize data and queries to unit length; then
//     ‖x−q‖² = 2 − 2·cos(x,q), a monotone decreasing map — the Euclidean
//     KNN of the normalized vectors are exactly the cosine KNN.
//   - Inner product: append one coordinate. Data rows x with norms
//     ‖x‖ ≤ R become (x, sqrt(R²−‖x‖²)); the query becomes (q, 0). Then
//     ‖x̂−q̂‖² = ‖q‖² + R² − 2⟨x,q⟩, monotone decreasing in ⟨x,q⟩.
package metric

import (
	"errors"
	"math"

	"resinfer/internal/vec"
)

// NormalizeForCosineInto writes the unit-normalized q into dst (same
// length; dst may be q itself) and returns dst, allocating nothing. A zero
// vector is rejected: cosine similarity is undefined for it.
func NormalizeForCosineInto(dst, q []float32) ([]float32, error) {
	if len(dst) != len(q) {
		return nil, errors.New("metric: normalize scratch length mismatch")
	}
	n := vec.Norm(q)
	if n == 0 {
		return nil, errors.New("metric: zero vector has no cosine direction")
	}
	inv := 1 / n
	for i, v := range q {
		dst[i] = v * inv
	}
	return dst, nil
}

// CosineFromSqDist converts a squared Euclidean distance between unit
// vectors back to the cosine similarity.
func CosineFromSqDist(d float32) float32 {
	return 1 - d/2
}

// IPTransform holds the augmentation parameters of the inner-product
// reduction.
type IPTransform struct {
	Dim   int     // original dimensionality
	MaxSq float64 // R²: the maximum squared norm among the data rows
}

// DataInto writes the augmented data row (x, sqrt(R²−‖x‖²)) into dst (length
// Dim+1; dst[:Dim] may be x itself) and returns dst, allocating nothing.
func (t *IPTransform) DataInto(dst, x []float32) ([]float32, error) {
	if len(x) != t.Dim || len(dst) != t.Dim+1 {
		return nil, errors.New("metric: data row dimension mismatch")
	}
	rem := t.MaxSq - float64(vec.NormSq(x))
	if rem < 0 {
		rem = 0
	}
	copy(dst, x)
	dst[t.Dim] = float32(math.Sqrt(rem))
	return dst, nil
}

// QueryInto writes the augmented query into dst (length Dim+1) and
// returns dst, allocating nothing.
func (t *IPTransform) QueryInto(dst, q []float32) ([]float32, error) {
	if len(q) != t.Dim {
		return nil, errors.New("metric: query dimension mismatch")
	}
	if len(dst) != t.Dim+1 {
		return nil, errors.New("metric: query scratch length mismatch")
	}
	copy(dst, q)
	dst[t.Dim] = 0
	return dst, nil
}

// IPFromSqDist recovers the inner product ⟨x, q⟩ from the augmented
// squared distance and the original query.
func (t *IPTransform) IPFromSqDist(d float32, q []float32) float32 {
	// ‖x̂−q̂‖² = ‖q‖² + R² − 2⟨x,q⟩  ⇒  ⟨x,q⟩ = (‖q‖² + R² − d)/2.
	return (vec.NormSq(q) + float32(t.MaxSq) - d) / 2
}
