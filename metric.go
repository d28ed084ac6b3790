package resinfer

import (
	"errors"
	"fmt"
	"math"

	"resinfer/internal/metric"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// MetricKind selects the similarity measure exposed by the index. All
// internal computation is squared Euclidean; cosine and inner product are
// reduced to it with the standard transformations (§II-A of the paper).
type MetricKind string

// Available metrics.
const (
	// L2 ranks by squared Euclidean distance (the default).
	L2 MetricKind = "l2"
	// Cosine ranks by descending cosine similarity. Data and queries are
	// unit-normalized internally; zero vectors are rejected.
	Cosine MetricKind = "cosine"
	// InnerProduct ranks by descending inner product. Data rows are
	// augmented with one coordinate internally.
	InnerProduct MetricKind = "ip"
)

// metricState is the metric reduction of one index: the kind and, for
// InnerProduct, the augmentation parameters of its rows.
type metricState struct {
	kind MetricKind
	ip   *metric.IPTransform
}

// checkVector reports what keeps v from being a dim-d vector of an index:
// the wrong dimensionality, or a NaN/±Inf component (which would poison
// exact scans and corrupt comparator training). The caller wraps the reason
// in ErrInvalidVector.
func checkVector(v []float32, dim int) error {
	if len(v) != dim {
		return fmt.Errorf("dim %d, index expects %d", len(v), dim)
	}
	for i, x := range v {
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("component %d is %v", i, x)
		}
	}
	return nil
}

// ingest is the one way rows enter an index: it copies n caller-space rows
// into a fresh matrix in the internal space of the metric reduction, checking
// each once (see checkVector) on the way. row(i) returns the i-th row and the
// ID an error names it by. Cosine rows are unit-normalized where they land;
// InnerProduct rows gain the augmenting coordinate sqrt(R²−‖x‖²), R² being
// the largest of maxSq and the squared norms of these rows.
func ingest(n int, row func(i int) (id int, v []float32), kind MetricKind, maxSq float64) (*store.Matrix, *metricState, error) {
	dim := 0
	if n > 0 {
		_, first := row(0)
		dim = len(first)
	}
	if dim == 0 {
		return nil, nil, errors.New("resinfer: empty data")
	}
	ms := &metricState{kind: kind}
	idim := dim
	switch kind {
	case L2, Cosine:
	case InnerProduct:
		ms.ip = &metric.IPTransform{Dim: dim, MaxSq: maxSq}
		idim++
	default:
		return nil, nil, fmt.Errorf("resinfer: unknown metric %q", kind)
	}
	mat, err := store.New(n, idim)
	if err != nil {
		return nil, nil, fmt.Errorf("resinfer: %w", err)
	}
	for i := 0; i < n; i++ {
		id, v := row(i)
		if err := checkVector(v, dim); err != nil {
			return nil, nil, fmt.Errorf("%w: row %d: %v", ErrInvalidVector, id, err)
		}
		dst := mat.Row(i)[:dim]
		copy(dst, v)
		switch kind {
		case Cosine:
			if _, err := metric.NormalizeForCosineInto(dst, dst); err != nil {
				return nil, nil, fmt.Errorf("resinfer: row %d: %w", id, err)
			}
		case InnerProduct:
			ms.ip.MaxSq = max(ms.ip.MaxSq, float64(vec.NormSq(dst)))
		}
	}
	if kind == InnerProduct {
		for i := 0; i < n; i++ {
			r := mat.Row(i)
			if _, err := ms.ip.DataInto(r, r[:dim]); err != nil {
				return nil, nil, err
			}
		}
	}
	return mat, ms, nil
}

// transformInto maps a caller query into the index's internal space, writing
// into dst (internal dimensionality) and allocating nothing. For L2 the query
// needs no transformation and is returned as-is.
func (ms *metricState) transformInto(dst, q []float32) ([]float32, error) {
	switch ms.kind {
	case L2:
		return q, nil
	case Cosine:
		return metric.NormalizeForCosineInto(dst, q)
	case InnerProduct:
		return ms.ip.QueryInto(dst, q)
	}
	return nil, errors.New("resinfer: metric state corrupt")
}

// Score converts a Neighbor's internal squared distance into the metric's
// native score: squared distance for L2, cosine similarity for Cosine, and
// inner product for InnerProduct (which needs the original query).
func (ix *Index) Score(n Neighbor, q []float32) float32 {
	switch ix.metric.kind {
	case Cosine:
		return metric.CosineFromSqDist(n.Distance)
	case InnerProduct:
		return ix.metric.ip.IPFromSqDist(n.Distance, q)
	default:
		return n.Distance
	}
}

// Metric returns the index's similarity measure.
func (ix *Index) Metric() MetricKind { return ix.metric.kind }
