// Package core defines the paper's central abstraction: the distance
// comparison operator (DCO). AKNN algorithms in the refinement phase never
// need raw distances per se — they need to decide whether a candidate's
// distance to the query exceeds the result queue's threshold τ, and only if
// it does not, the (exact) distance itself. A DCO owns the data layout
// required by its distance method (rotated vectors, quantization codes,
// norms) and builds evaluators that answer exactly those questions while
// counting the work they performed.
//
// There is one way to get an evaluator: DCO.NewEvaluator returns an
// unprimed ResettableEvaluator with its scratch preallocated, and Reset
// primes it for a query. Index walks consume the primed evaluator as a
// QueryEvaluator. Production keeps evaluators in per-mode pools and Resets
// one per search; tests build one per comparator and Reset it per query,
// so both run the same path.
//
// Implementations in this repository: exact scan (this package),
// ADSampling (internal/adsampling), and the paper's DDCres / DDCpca /
// DDCopq (internal/ddc).
package core

import (
	"errors"
	"math"

	"resinfer/internal/pca"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Stats counts the work a query evaluator performed. Indexes aggregate
// these to report the paper's scan-rate and pruned-rate metrics (Exp-6).
type Stats struct {
	// Comparisons is the number of Compare calls.
	Comparisons int64
	// Pruned counts comparisons resolved with an approximate distance
	// (the candidate was discarded without computing an exact distance).
	Pruned int64
	// DimsScanned is the total number of vector coordinates consumed by
	// Compare calls. For an exact method this is Comparisons·D; for
	// incremental methods it is smaller — DimsScanned / (Comparisons·D)
	// is the paper's scan rate.
	DimsScanned int64
	// ExactDistances counts full exact distance computations (Compare
	// fallthroughs plus Distance calls).
	ExactDistances int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Comparisons += other.Comparisons
	s.Pruned += other.Pruned
	s.DimsScanned += other.DimsScanned
	s.ExactDistances += other.ExactDistances
}

// PrunedRate returns Pruned / Comparisons (0 when no comparisons ran).
func (s *Stats) PrunedRate() float64 {
	if s.Comparisons == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Comparisons)
}

// ScanRate returns the fraction of coordinates consumed relative to an
// exact scan over the same comparisons.
func (s *Stats) ScanRate(dim int) float64 {
	if s.Comparisons == 0 || dim <= 0 {
		return 0
	}
	return float64(s.DimsScanned) / float64(s.Comparisons*int64(dim))
}

// DCO builds query evaluators over a fixed dataset.
type DCO interface {
	// Name identifies the method (e.g. "exact", "adsampling", "ddc-res").
	Name() string
	// Size returns the number of points the DCO can evaluate.
	Size() int
	// Dim returns the data dimensionality.
	Dim() int
	// ExtraBytes reports auxiliary memory beyond the raw float32 vectors:
	// rotation matrices, stored norms, quantization codes (Exp-3's space
	// accounting).
	ExtraBytes() int64
	// NewEvaluator returns an unprimed evaluator whose scratch (rotated
	// query, lookup tables, error-bound suffix tables) is preallocated;
	// callers must Reset it before use. An evaluator is NOT safe for
	// concurrent use; keep one per goroutine.
	NewEvaluator() ResettableEvaluator
}

// QueryEvaluator answers threshold comparisons and exact distances for one
// query.
type QueryEvaluator interface {
	// Distance returns the exact squared Euclidean distance to point id.
	Distance(id int) float32
	// Compare decides whether dist(q, id) > tau. When pruned is true the
	// candidate may be discarded and dist estimates the full distance: the
	// HNSW walk keys its beam by it, so it must be neither a bound nor a
	// prefix sum, and it is never an answer. When pruned is false, dist is
	// the exact distance. A tau of +Inf (result queue still filling)
	// always takes the exact path.
	Compare(id int, tau float32) (dist float32, pruned bool)
	// Stats returns the accumulated work counters.
	Stats() *Stats
}

// ResettableEvaluator is a QueryEvaluator that can be re-primed for a new
// query, reusing its scratch buffers (rotated query, suffix tables, lookup
// tables) instead of allocating fresh ones. Reset zeroes the work counters.
// A reset evaluator must answer exactly like a freshly built one.
type ResettableEvaluator interface {
	QueryEvaluator
	Reset(q []float32) error
}

// RotatingEvaluator is a ResettableEvaluator whose Reset begins by rotating
// the query: D² multiply-adds that depend on the query and on Rotation
// alone, not on the rows the comparator covers. Evaluators of comparators
// built around one rotation (the shards of a sharded index) can therefore
// share that work: one of them Rotates, all of them ResetRotated. Reset(q)
// is Rotate into the evaluator's own buffer followed by ResetRotated.
type RotatingEvaluator interface {
	ResettableEvaluator
	// Rotation identifies the rotation: two evaluators of one comparator
	// kind that return the same pointer rotate any query to the same vector.
	Rotation() *store.Matrix
	// Rotate writes the rotated query into dst (length Dim); dst must not
	// alias q.
	Rotate(dst, q []float32) error
	// ResetRotated primes the evaluator with rq, a query some evaluator with
	// the same Rotation rotated. rq is copied, not retained.
	ResetRotated(rq []float32) error
}

// PooledDCO is the name DCO had while NewEvaluator was an optional
// capability; the benchmark gate (benchmark/) is its only user.
type PooledDCO = DCO

// Exact is the baseline DCO computing every distance in full over the
// index's one copy of its rows. Once a PCA mode re-bases the index they lie
// in the PCA basis, and the evaluator rotates the query there first.
type Exact struct {
	data  *store.Matrix
	basis *pca.Model // nil: data lies in the space queries arrive in
}

// NewExact wraps a flat matrix in an exact DCO.
func NewExact(data *store.Matrix) (*Exact, error) { return NewExactIn(data, nil) }

// NewExactIn is NewExact over rows basis projected (nil: none).
func NewExactIn(data *store.Matrix, basis *pca.Model) (*Exact, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("core: empty data")
	}
	if basis != nil && basis.Dim != data.Dim() {
		return nil, errors.New("core: basis dimension mismatch")
	}
	return &Exact{data: data, basis: basis}, nil
}

// Name implements DCO.
func (e *Exact) Name() string { return "exact" }

// Size implements DCO.
func (e *Exact) Size() int { return e.data.Rows() }

// Dim implements DCO.
func (e *Exact) Dim() int { return e.data.Dim() }

// ExtraBytes implements DCO: the exact method stores nothing extra.
func (e *Exact) ExtraBytes() int64 { return 0 }

// Data exposes the underlying vectors (read-only by convention) so index
// builders can compute construction-time distances without an evaluator.
func (e *Exact) Data() *store.Matrix { return e.data }

// NewEvaluator implements DCO; over rows in a basis, a RotatingEvaluator.
func (e *Exact) NewEvaluator() ResettableEvaluator {
	ev := exactEvaluator{parent: e, flat: e.data.Flat(), dim: e.data.Dim()}
	if e.basis == nil {
		return &ev
	}
	return &rotatingExact{exactEvaluator: ev, rq: make([]float32, ev.dim), cent: make([]float32, ev.dim)}
}

// rotatingExact scans rows in a basis with the query rotated into rq.
type rotatingExact struct {
	exactEvaluator
	rq, cent []float32
}

func (ev *rotatingExact) Reset(q []float32) error {
	if err := ev.Rotate(ev.rq, q); err != nil {
		return err
	}
	return ev.ResetRotated(ev.rq)
}

// Rotation implements RotatingEvaluator.
func (ev *rotatingExact) Rotation() *store.Matrix { return ev.parent.basis.Rotation }

// Rotate implements RotatingEvaluator: the projection into the basis.
func (ev *rotatingExact) Rotate(dst, q []float32) error {
	return ev.parent.basis.ProjectInto(dst, q, ev.cent)
}

// ResetRotated implements RotatingEvaluator.
func (ev *rotatingExact) ResetRotated(rq []float32) error {
	if len(rq) != ev.dim {
		return errors.New("core: rotated query dimension mismatch")
	}
	copy(ev.rq, rq)
	return ev.exactEvaluator.Reset(ev.rq)
}

type exactEvaluator struct {
	parent *Exact
	flat   []float32
	dim    int
	q      []float32
	stats  Stats
}

func (ev *exactEvaluator) Reset(q []float32) error {
	if len(q) != ev.dim {
		return errors.New("core: query dimension mismatch")
	}
	ev.q = q
	ev.stats = Stats{}
	return nil
}

func (ev *exactEvaluator) Distance(id int) float32 {
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*ev.dim)
}

func (ev *exactEvaluator) Compare(id int, tau float32) (float32, bool) {
	ev.stats.Comparisons++
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.dim)
	d := vec.L2SqFlat(ev.q, ev.flat, id*ev.dim)
	_ = tau
	return d, false
}

func (ev *exactEvaluator) Stats() *Stats { return &ev.stats }

// InfThreshold is the threshold value used while a result queue is still
// filling; Compare implementations must not prune against it.
var InfThreshold = float32(math.Inf(1))
