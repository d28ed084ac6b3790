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

	"resinfer/internal/par"
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
//
// It is also the evaluator a scan holds, so it answers for a block of ids
// at a time too.
type ResettableEvaluator interface {
	QueryEvaluator
	Reset(q []float32) error
	// Prune rules out, in bulk, ids of a block of at most PruneBlock ids
	// that Compare(id, tau) would prune, or whose exact distance (as
	// Compare computes it) is at least tau, and returns the others in
	// order: keep extended by them, or ids itself, uncopied, from an
	// evaluator that rules out nothing in bulk. Each id it rules out is
	// counted in Stats as one comparison, pruned, that read the
	// coordinates the ruling read (for an id Compare would prune, exactly
	// as that Compare counts it); survivors are not counted, since the
	// caller then Compares each one. A tau of +Inf keeps every id. Since
	// Compare with a smaller tau prunes all that Prune prunes, and a result
	// queue admits no id at or past its tau, a scan may Prune a block under
	// the tau it starts with and Compare the survivors under the tau of
	// the moment, and answer exactly as Compare alone would.
	Prune(ids []int32, tau float32, keep []int32) []int32
}

// PruneBlock is how many ids a scan hands Prune at a time, and how many
// round-0 inner products an evaluator computes in one kernel call. Sizes
// from 16 to 256 measured within 7 % of each other.
const PruneBlock = 64

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

// PrefixDim is P, how many leading coordinates of a row in a PCA basis
// exact's prefix bound reads first. At d = 420 and 60 % of the variance in
// the first 32 dimensions, 71 % of rows survive the bound at P = 32, 15 % at
// 64 and 5 % at 96, and 3.5 % survive the bound at 64 and then DeepDim (at
// n = 4 000, counting the first 64-id block, which a scan reads in full
// while its result queue fills: 2 % of the other rows); the table costs
// 4·P bytes a row, so P = 64.
const PrefixDim = 64

// DeepDim is the depth of exact's second bound, which tests the survivors
// of the first on the next PrefixDim coordinates before their full rows are
// read; rows of at most DeepDim coordinates skip it.
const DeepDim = 2 * PrefixDim

// Exact is the baseline DCO computing every distance in full over the
// index's one copy of its rows. Once a PCA mode re-bases the index they lie
// in the PCA basis, and the evaluator rotates the query there first.
//
// Given a PCA model, exact also rules rows out in bulk on a lower bound
// that never errs (BOND, de Vries et al., SIGMOD 2002): with the query and
// a row in the model's basis, a and b, P the first PrefixDim coordinates
// and ⊥ the rest, Cauchy–Schwarz on the rest gives
//
//	dist(q, x) ≥ ‖a_P − b_P‖² + (‖a_⊥‖ − ‖b_⊥‖)²
//	           = (‖b‖² + ‖a‖²) − 2⟨a_P, b_P⟩ − 2‖a_⊥‖·‖b_⊥‖,
//
// the shape vec.PruneRows tests with norms ‖b‖², bound 2‖a_⊥‖ and factor
// ‖b_⊥‖. On rows the model re-based, b is the stored row and a the rotated
// query. On raw rows, a and b are the model's projections of q − μ and
// x − μ onto its first P directions, and the tails come from the
// difference of the squared norms. On rows of more than DeepDim
// coordinates, a row that passes the bound at P = PrefixDim is tested
// again at P = DeepDim, by adding the next PrefixDim coordinates' inner
// product to the first's, before its full row is read.
type Exact struct {
	data  *store.Matrix
	basis *pca.Model // nil: data lies in the space queries arrive in
	// prefix is the bound's table (nil: exact prunes nothing). On raw rows
	// only, model is the model it projects with and proj the first
	// PrefixDim rows of its rotation, or DeepDim rows with a second bound,
	// which project a query onto it.
	prefix *PrefixTable
	model  *pca.Model
	proj   []float32
	// The second bound (deepFac nil: none) reads a survivor's coordinates
	// PrefixDim…DeepDim−1 at next[id·stride + PrefixDim:], which is where
	// the first bound's kernel prefetches for it: the row itself on
	// re-based rows; on raw rows a projected n × PrefixDim table led by one
	// row of padding. deepFac is ‖b_{≥DeepDim}‖ per row. Without a second
	// bound, next and stride are the rows, whose survivors are read whole.
	next    []float32
	stride  int
	deepFac []float32
	// slack is the share of ‖q − μ‖² a raw query's tail is raised by, and
	// margin, times maxNorm + ‖a‖², what the bound must exceed τ by; the
	// deep ones are the second bound's.
	slack, margin, deepSlack, deepMargin, maxNorm float64
}

// NewExact wraps a flat matrix in an exact DCO, which prunes nothing.
func NewExact(data *store.Matrix) (*Exact, error) { return NewExactIn(data, nil, nil) }

// NewExactIn is NewExact over rows basis projected (nil: none) that also
// prunes on a prefix bound: in basis, or, on rows in no basis, in model's
// (nil: no bound). Either needs rows of more than PrefixDim coordinates.
func NewExactIn(data *store.Matrix, basis, model *pca.Model) (*Exact, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("core: empty data")
	}
	if basis != nil && basis.Dim != data.Dim() {
		return nil, errors.New("core: basis dimension mismatch")
	}
	d := data.Dim()
	e := &Exact{data: data, basis: basis, next: data.Flat(), stride: d}
	var eta, deepEta float64 // ‖R_P R_Pᵀ − I‖: 0 on re-based rows, which need no R_P
	switch {
	case d <= PrefixDim:
	case basis != nil:
		e.prefix, e.deepFac = rebasedPrefix(data)
	case model != nil && model.Dim == d:
		p := PrefixDim
		if d > DeepDim {
			p = DeepDim
			deepEta = orthoError(model.Rotation.Flat()[:p*d], d)
		}
		e.model, e.proj = model, model.Rotation.Flat()[:p*d]
		eta = orthoError(e.proj[:PrefixDim*d], d)
		var deep []float32
		e.prefix, deep, e.deepFac = rawPrefix(data, e.proj, model.Mean, eta, deepEta)
		if deep != nil {
			e.next, e.stride = deep, PrefixDim
		}
	}
	if e.prefix != nil {
		for _, v := range e.prefix.norms {
			e.maxNorm = max(e.maxNorm, float64(v))
		}
		e.slack, e.margin = boundMargin(d, PrefixDim, eta)
		if e.deepFac != nil {
			e.deepSlack, e.deepMargin = boundMargin(d, DeepDim, deepEta)
		}
	}
	return e, nil
}

// boundMargin returns, for the bound at depth p over d-dimensional rows
// whose projection is eta from orthonormal, the share of ‖q − μ‖² a raw
// query's tail is raised by and the margin, relative to maxNorm + ‖a‖², the
// bound must exceed τ by.
//
// The margin. Let u = 2⁻²⁴, D the dimension, S = maxNorm + ‖a‖², which
// bounds 2‖a‖‖b‖ and half of every distance. A pruned row must have a
// float32 exact distance above τ, which holds when the computed bound
// exceeds the bound in exact arithmetic, which is ≤ dist, by at most
// margin·S less what the float32 distance can fall short of dist by:
//   - the float32 L2Sq over D coordinates: ≤ (D+2)u·dist ≤ 2(D+2)u·S;
//   - 2⟨a_P, b_P⟩ in float32 over P coordinates: ≤ (P+1)u·S, however its
//     P products are summed, so also as the second bound sums them: the
//     first bound's sum of PrefixDim plus the next PrefixDim's;
//   - rounding norms, ‖a‖², the bound, the factor, their product, τ +
//     margin and the three sums of the test to float32: ≤ 16u·S;
//   - on raw rows, the query's float32 projection a_P, off by at most κ‖a‖
//     with κ = √P·(D+2)u·(1+η) (D-term float32 dots, one rounding of
//     q − μ): 2⟨a_P, b_P⟩ moves by ≤ κ·S;
//   - on raw rows, R_P's distance η from orthonormal: 2⟨R_P v, R_P w⟩ is
//     within η·S of the exact projections' and, their squared norms within
//     η‖·‖², each tail is raised by η‖·‖² (a query's by η + 3κ, which also
//     covers its projection) before its square root, so it never falls
//     below the true one.
//
// The row side is computed in float64, so b_P is off by a rounding only.
// margin = 2η + (√P + 2)(D + P + 8)u covers the sum, since
// (√P+2)(D+P+8) ≥ √P(D+2) + 2D + P + 21 for every P ≥ 1.
func boundMargin(d, p int, eta float64) (slack, margin float64) {
	df, pf := float64(d), float64(p)
	u := math.Ldexp(1, -24)
	kappa := math.Sqrt(pf) * (df + 2) * u * (1 + eta)
	return eta + 3*kappa, 2*eta + (math.Sqrt(pf)+2)*(df+pf+8)*u
}

// rebasedPrefix builds the bound's table over rows in the basis: each
// row's first PrefixDim coordinates copied, ‖b‖² and ‖b_⊥‖ in float64, and
// on rows of more than DeepDim coordinates each row's ‖b_{≥DeepDim}‖ (nil
// otherwise).
func rebasedPrefix(data *store.Matrix) (*PrefixTable, []float32) {
	n, p := data.Rows(), PrefixDim
	pre, norms, fac := make([]float32, n*p), make([]float32, n), make([]float32, n)
	var deepFac []float32
	if data.Dim() > DeepDim {
		deepFac = make([]float32, n)
	}
	for r := 0; r < n; r++ {
		b := data.Row(r)
		copy(pre[r*p:], b[:p])
		head, tail := sumSq64(b[:p]), sumSq64(b[p:])
		norms[r], fac[r] = float32(head+tail), float32(math.Sqrt(tail))
		if deepFac != nil {
			deepFac[r] = float32(math.Sqrt(sumSq64(b[DeepDim:])))
		}
	}
	return NewPrefixTable(pre, norms, fac, p), deepFac
}

// rawPrefix builds the bound's table over rows in no basis: each row's
// projection R_P(x − μ) by proj, ‖x − μ‖² and its tail, raised by eta
// (see NewExactIn), all in float64 (the projection through R_Pᵀ as
// float64 rows), then rounded. When proj holds DeepDim rows, the same pass
// fills the second bound's table, the projection's coordinates
// PrefixDim…DeepDim−1 after one row of padding, and its tails, raised by
// deepEta; otherwise both are nil.
func rawPrefix(data *store.Matrix, proj, mean []float32, eta, deepEta float64) (*PrefixTable, []float32, []float32) {
	n, d, p := data.Rows(), data.Dim(), PrefixDim
	width := len(proj) / d
	rt := make([][]float64, d) // R_Pᵀ: rt[j][i] = R[i][j]
	back := make([]float64, d*width)
	for j := range rt {
		rt[j] = back[j*width : (j+1)*width]
		for i := range width {
			rt[j][i] = float64(proj[i*d+j])
		}
	}
	pre, norms, fac := make([]float32, n*p), make([]float32, n), make([]float32, n)
	var deep, deepFac []float32
	if width > p {
		deep, deepFac = make([]float32, (n+1)*p), make([]float32, n)
	}
	u := math.Ldexp(1, -24)
	par.Range(n, 0, func(lo, hi int) {
		w, b := make([]float64, d), make([]float64, width)
		for r := lo; r < hi; r++ {
			var wn float64
			for j, x := range data.Row(r) {
				w[j] = float64(x) - float64(mean[j])
				wn += w[j] * w[j]
			}
			clear(b)
			vec.AxpyRows64(b, w, rt)
			var bn float64
			for i, v := range b[:p] {
				pre[r*p+i] = float32(v)
				bn += v * v
			}
			norms[r] = float32(wn)
			fac[r] = float32(math.Sqrt(max(0, wn-bn+(eta+u)*wn)))
			if deep == nil {
				continue
			}
			for i, v := range b[p:] {
				deep[(r+1)*p+i] = float32(v)
				bn += v * v
			}
			deepFac[r] = float32(math.Sqrt(max(0, wn-bn+(deepEta+u)*wn)))
		}
	})
	return NewPrefixTable(pre, norms, fac, p), deep, deepFac
}

// orthoError returns ‖R Rᵀ − I‖_F, in float64, for the rows of the
// row-major r: a bound on the spectral norm that the margin needs.
func orthoError(r []float32, d int) float64 {
	p := len(r) / d
	var s float64
	for i := range p {
		for k := i; k < p; k++ {
			var g float64
			for j := range d {
				g += float64(r[i*d+j]) * float64(r[k*d+j])
			}
			if i == k {
				g--
			} else {
				g *= math.Sqrt2 // G is symmetric: count (i, k) and (k, i)
			}
			s += g * g
		}
	}
	return math.Sqrt(s)
}

func sumSq64(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return s
}

// Name implements DCO.
func (e *Exact) Name() string { return "exact" }

// Size implements DCO.
func (e *Exact) Size() int { return e.data.Rows() }

// Dim implements DCO.
func (e *Exact) Dim() int { return e.data.Dim() }

// ExtraBytes implements DCO: what the prefix bound holds, the table, norms
// and tails, the second bound's tails and, on raw rows, its table, plus on
// raw rows the model it projects with. Without a bound the exact method
// stores nothing extra.
func (e *Exact) ExtraBytes() int64 {
	var b int64
	if e.prefix != nil {
		b = e.prefix.Bytes() + int64(len(e.deepFac))*4
	}
	if e.model != nil {
		b += e.model.Rotation.Bytes()
		if e.deepFac != nil {
			b += int64(len(e.next)) * 4
		}
	}
	return b
}

// Data exposes the underlying vectors (read-only by convention) so index
// builders can compute construction-time distances without an evaluator.
func (e *Exact) Data() *store.Matrix { return e.data }

// NewEvaluator implements DCO; over rows in a basis, a RotatingEvaluator.
func (e *Exact) NewEvaluator() ResettableEvaluator {
	ev := exactEvaluator{parent: e, flat: e.data.Flat(), dim: e.data.Dim()}
	if e.proj != nil {
		ev.qp, ev.cent = make([]float32, len(e.proj)/ev.dim), make([]float32, ev.dim)
	}
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
	// The prefix bound's query side: a_P (a view of q on re-based rows),
	// ‖a‖², 2‖a_⊥‖ and the margin, and the second bound's 2‖a_{≥DeepDim}‖
	// and margin; cent is raw rows' centering scratch.
	qp, cent                                    []float32
	qNorm, bound, margin, deepBound, deepMargin float32
	surv                                        [PruneBlock]int32
	c2                                          [PruneBlock]float32
}

func (ev *exactEvaluator) Reset(q []float32) error {
	if len(q) != ev.dim {
		return errors.New("core: query dimension mismatch")
	}
	ev.q = q
	ev.stats = Stats{}
	if e := ev.parent; e.prefix != nil {
		var qn, tail, deepTail float64
		if e.proj == nil { // re-based: q is the rotated query
			ev.qp = q[:min(ev.dim, DeepDim)]
			head := sumSq64(q[:PrefixDim])
			tail = sumSq64(q[PrefixDim:])
			qn = head + tail
			if e.deepFac != nil {
				deepTail = sumSq64(q[DeepDim:])
			}
		} else {
			mean := e.model.Mean
			for j, x := range q {
				v := float64(x) - float64(mean[j])
				qn += v * v
			}
			vec.SubInto(ev.cent, q, mean)
			vec.MatVec(ev.qp, e.proj, ev.dim, ev.cent)
			tail = max(0, qn-sumSq64(ev.qp[:PrefixDim])+e.slack*qn)
			if e.deepFac != nil {
				deepTail = max(0, qn-sumSq64(ev.qp)+e.deepSlack*qn)
			}
		}
		ev.qNorm = float32(qn)
		ev.bound = float32(2 * math.Sqrt(tail))
		ev.margin = float32(e.margin * (e.maxNorm + qn))
		ev.deepBound = float32(2 * math.Sqrt(deepTail))
		ev.deepMargin = float32(e.deepMargin * (e.maxNorm + qn))
	}
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

// Prune implements ResettableEvaluator: it rules out the ids whose prefix
// bound exceeds tau by the margin, whose exact distance therefore exceeds
// tau, and then, with a second bound, those of the rest whose bound at
// DeepDim exceeds tau by its margin. Without a bound, or at a tau of +Inf,
// it keeps every id.
//
//resinfer:noalloc
func (ev *exactEvaluator) Prune(ids []int32, tau float32, keep []int32) []int32 {
	e := ev.parent
	if e.prefix == nil || math.IsInf(float64(tau), 1) {
		return ids
	}
	n := e.prefix.Prune(&ev.stats, ev.qp, ids, ev.qNorm, ev.bound, tau+ev.margin, e.next, e.stride, ev.surv[:], ev.c2[:])
	if e.deepFac == nil {
		return append(keep, ev.surv[:n]...)
	}
	// The test of vec.PruneRows at DeepDim, the first bound's 2⟨a_P, b_P⟩
	// extended by the next PrefixDim coordinates, which the kernel has
	// prefetched; the product is rounded on its own, as the kernel does.
	q, norms, lim := ev.qp[PrefixDim:DeepDim], e.prefix.norms, tau+ev.deepMargin
	kept := len(keep)
	for i, id := range ev.surv[:n] {
		at := int(id)*e.stride + PrefixDim
		c := ev.c2[i] + 2*vec.Dot(q, e.next[at:at+PrefixDim])
		if !((norms[id]+ev.qNorm)-c-float32(ev.deepBound*e.deepFac[id]) > lim) {
			keep = append(keep, id)
		}
	}
	out := int64(n - (len(keep) - kept))
	ev.stats.Comparisons += out
	ev.stats.Pruned += out
	ev.stats.DimsScanned += out * DeepDim
	return keep
}

func (ev *exactEvaluator) Stats() *Stats { return &ev.stats }

// InfThreshold is the threshold value used while a result queue is still
// filling; Compare implementations must not prune against it.
var InfThreshold = float32(math.Inf(1))
