// Package ddc implements the paper's distance computation methods:
//
//   - DDCres (§IV, Algorithms 1–2): PCA-rotated vectors with the
//     distance decomposition dis = C1 − C2 − C3 and the Gaussian
//     error-quantile bound m·σ, applied incrementally over projection
//     depths.
//   - DDCpca (§V-B): plain PCA projected distance corrected by learned
//     per-level linear classifiers.
//   - DDCopq (§V-B): OPQ asymmetric distance corrected by a learned
//     linear classifier with the quantization-residual feature.
//
// All three implement core.DCO (their evaluators carry reusable scratch)
// and plug into the HNSW, IVF and flat indexes. Vector payloads
// live in flat row-major store.Matrix buffers.
package ddc

import (
	"errors"
	"math"

	"resinfer/internal/core"
	"resinfer/internal/pca"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// ResConfig controls DDCres.
type ResConfig struct {
	// Multiplier is the error-bound multiplier m of §IV-C; the corrected
	// distance is dis' − m·σ. Default 3 (the 99.7% Gaussian empirical
	// rule highlighted in Fig. 2). m is a standard-normal quantile: a
	// one-sided coverage q takes m = Φ⁻¹(q), e.g. 2.576 for 0.995.
	Multiplier float64
	// InitD is the first projection depth tested; default 32.
	InitD int
	// DeltaD is the depth increment per correction round (Algorithm 2);
	// default 32. Setting DeltaD >= Dim reproduces the non-incremental
	// Algorithm 1 (one test, then exact).
	DeltaD int
	// PCASample caps rows used for PCA training (0 = all).
	PCASample int
	Seed      int64
}

// Res is the DDCres comparator.
type Res struct {
	rotated *store.Matrix
	norms   []float32 // ‖x−μ‖² per point in the rotated space
	// pre holds each rotated row's first initD coordinates and norms: round
	// 0 reads it, in Prune a block of ids per call and in Compare one row at
	// a time (for an id Prune did not just keep). A copy kept for speed; nil
	// when dim ≤ initD, where round 0 is the whole row.
	pre    *core.PrefixTable
	model  *pca.Model
	dim    int
	m      float32
	initD  int
	deltaD int
}

// NewRes trains PCA on data and builds DDCres over a rotated copy it owns.
func NewRes(data *store.Matrix, cfg ResConfig) (*Res, error) {
	rotated, model, err := project(data, cfg.PCASample, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewResRotated(rotated, model, cfg)
}

// project trains PCA on data and rotates data's rows into its basis.
func project(data *store.Matrix, sample int, seed int64) (*store.Matrix, *pca.Model, error) {
	model, err := pca.Train(pca.Config{SampleSize: sample, Seed: seed}, data)
	if err != nil {
		return nil, nil, err
	}
	rotated, err := model.ProjectMatrix(data, 0)
	return rotated, model, err
}

// NewResRotated builds DDCres over rows model already projected, an index's
// own rows once re-based, sharing rows and model. The σ of the Eq. 3 bound
// are model's, so it should be fit to these rows (pca.Train or Refit).
func NewResRotated(rotated *store.Matrix, model *pca.Model, cfg ResConfig) (*Res, error) {
	dim := model.Dim
	if cfg.Multiplier <= 0 {
		cfg.Multiplier = 3
	}
	if cfg.InitD <= 0 {
		cfg.InitD = 32
	}
	if cfg.InitD > dim {
		cfg.InitD = dim
	}
	if cfg.DeltaD <= 0 {
		cfg.DeltaD = 32
	}
	if cfg.DeltaD > dim {
		cfg.DeltaD = dim
	}
	r := &Res{
		rotated: rotated,
		norms:   make([]float32, rotated.Rows()),
		model:   model,
		dim:     dim,
		m:       float32(cfg.Multiplier),
		initD:   cfg.InitD,
		deltaD:  cfg.DeltaD,
	}
	var pre []float32
	if r.rounds() > 0 {
		pre = make([]float32, 0, rotated.Rows()*r.initD)
	}
	for i := 0; i < rotated.Rows(); i++ {
		r.norms[i] = vec.NormSq(rotated.Row(i))
		if pre != nil {
			pre = append(pre, rotated.Row(i)[:r.initD]...)
		}
	}
	if pre != nil {
		r.pre = core.NewPrefixTable(pre, r.norms, nil, r.initD)
	}
	return r, nil
}

// Name implements core.DCO.
func (r *Res) Name() string { return "ddc-res" }

// Size implements core.DCO.
func (r *Res) Size() int { return r.rotated.Rows() }

// Dim implements core.DCO.
func (r *Res) Dim() int { return r.dim }

// ExtraBytes implements core.DCO: rotation matrix (D² floats) plus the
// per-point norms (§VII Exp-3's space accounting for DDCres), plus the
// n × initD prefix table, which Exp-3 does not count: a copy kept for
// speed, not state the method needs. Inside an index that is all it adds:
// the rotated rows are the index's one copy of its rows, which a PCA mode
// re-bases rather than duplicates. A standalone NewRes also owns a rotated
// copy of the rows it was given.
func (r *Res) ExtraBytes() int64 {
	if r.pre != nil {
		return r.model.Rotation.Bytes() + r.pre.Bytes()
	}
	return r.model.Rotation.Bytes() + int64(len(r.norms))*4
}

// Model exposes the PCA model (variance spectrum, rotation) for
// diagnostics and the figure experiments.
func (r *Res) Model() *pca.Model { return r.model }

// Rotated exposes the rotated vectors (read-only by convention).
func (r *Res) Rotated() *store.Matrix { return r.rotated }

// Norms exposes the stored per-point squared norms ‖x−μ‖² (read-only by
// convention) — the C1 ingredient of the distance decomposition.
func (r *Res) Norms() []float32 { return r.norms }

// rounds returns how many projection depths initD + k·deltaD lie below
// dim: the correction rounds of Algorithm 2 that end in a prune test
// rather than in the exact distance.
func (r *Res) rounds() int {
	return (r.dim - r.initD + r.deltaD - 1) / r.deltaD
}

// NewEvaluator implements core.DCO: the returned evaluator owns the
// rotated-query buffer, the centering scratch and the bound table. Its
// Reset rotates q (O(D²)) and fills the bound table: m·σ, σ being
// sqrt(4·Σ_{i≥d} q_i²σ_i²), at every depth d a correction round stops at,
// so each round reads its error bound in O(1).
func (r *Res) NewEvaluator() core.ResettableEvaluator {
	ev := &resEvaluator{
		parent: r,
		flat:   r.rotated.Flat(),
		q:      make([]float32, r.dim),
		cent:   make([]float32, r.dim),
		bound:  make([]float32, r.rounds()),
	}
	if r.pre != nil {
		ev.pre = r.pre.Pre()
	}
	return ev
}

// resEvaluator is one query's DDCres state. Prune records the ids it keeps
// and their round-0 sums C2 = 2·⟨q, x⟩ over the first initD coordinates;
// Compare, called on the next of them in order, resumes from that C2 at
// round 1, and any other Compare runs round 0 itself. C2 does not depend
// on τ, so either way the answer and the counters are the same.
type resEvaluator struct {
	parent *Res
	flat   []float32 // rotated vectors, row-major
	pre    []float32 // the parent's prefix table (nil: none)
	q      []float32 // rotated query (owned scratch)
	cent   []float32 // centering scratch for the PCA projection
	qNorm  float32
	bound  []float32 // error bound m·σ at depth initD + k·deltaD
	// Prune's survivors and their C2; Compare has resumed surv[:next].
	surv        [core.PruneBlock]int32
	survC2      [core.PruneBlock]float32
	nSurv, next int
	stats       core.Stats
}

// Reset projects q into the evaluator's scratch, rebuilds the bound table,
// forgets Prune's survivors and zeroes the counters.
func (ev *resEvaluator) Reset(q []float32) error {
	if err := ev.parent.model.ProjectInto(ev.q, q, ev.cent); err != nil {
		return err
	}
	return ev.ResetRotated(ev.q)
}

// ResetRotated implements core.ResettableEvaluator: everything Reset does
// after the projection, all of it linear in D.
func (ev *resEvaluator) ResetRotated(rq []float32) error {
	p := ev.parent
	if len(rq) != p.dim {
		return errors.New("ddc: rotated query dimension mismatch")
	}
	copy(ev.q, rq)
	// One backwards pass accumulates Σ_{i≥d} (q_i·σ_i)² in float64; only
	// the depths Compare stops at get a square root and a table entry.
	sig := p.model.Sigmas
	var s float64
	hi := p.dim
	for k := len(ev.bound) - 1; k >= 0; k-- {
		lo := p.initD + k*p.deltaD
		for i := hi - 1; i >= lo; i-- {
			t := float64(ev.q[i]) * float64(sig[i])
			s += t * t
		}
		ev.bound[k] = p.m * float32(math.Sqrt(4*s))
		hi = lo
	}
	ev.qNorm = vec.NormSq(ev.q)
	ev.nSurv, ev.next = 0, 0
	ev.stats = core.Stats{}
	return nil
}

func (ev *resEvaluator) Distance(id int) float32 {
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.parent.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*ev.parent.dim)
}

// Compare implements Incremental-DDCres (Algorithm 2): C1 is precomputed
// from stored norms, C2 accumulates inner products over increasing depth,
// and the candidate is pruned as soon as C1 − C2 − m·σ_d exceeds tau.
func (ev *resEvaluator) Compare(id int, tau float32) (float32, bool) {
	ev.stats.Comparisons++
	p := ev.parent
	base := id * p.dim
	if math.IsInf(float64(tau), 1) {
		ev.stats.ExactDistances++
		ev.stats.DimsScanned += int64(p.dim)
		return vec.L2SqFlat(ev.q, ev.flat, base), false
	}
	c1 := p.norms[id] + ev.qNorm
	// Round 0 is Prune's C2 for the next id it kept, else read from the
	// prefix table (the same values as the row's first initD coordinates)
	// or, with none, from the row; every later round reads the row.
	var c2 float32
	switch {
	case ev.next < ev.nSurv && int(ev.surv[ev.next]) == id:
		c2 = ev.survC2[ev.next]
		ev.next++
	case ev.pre != nil:
		c2 = 2 * vec.DotRangeFlat(ev.q, ev.pre, id*p.initD, 0, p.initD)
	default:
		c2 = 2 * vec.DotRangeFlat(ev.q, ev.flat, base, 0, p.initD)
	}
	d := p.initD
	ev.stats.DimsScanned += int64(d)
	for k := 0; d < p.dim; k++ {
		// One subtraction against the stored bound, nothing to fuse:
		// core.PrefixTable.Prune tests round 0 with the same expression.
		if approx := c1 - c2; approx-ev.bound[k] > tau {
			ev.stats.Pruned++
			return approx, true
		}
		next := min(d+p.deltaD, p.dim)
		c2 += 2 * vec.DotRangeFlat(ev.q, ev.flat, base, d, next)
		ev.stats.DimsScanned += int64(next - d)
		d = next
	}
	// All dimensions consumed: the decomposition is exact (C3 folded into
	// C2). Clamp float cancellation noise.
	approx := c1 - c2
	if approx < 0 {
		approx = 0
	}
	ev.stats.ExactDistances++
	return approx, false
}

// Prune implements core.ResettableEvaluator: round 0 of Compare for a
// block of at most core.PruneBlock ids in one call over the prefix table
// (core.PrefixTable.Prune, no factor), which also prefetches each
// survivor's round-1 lines. It records the survivors and their C2 for
// Compare to resume from. With no
// prefix table (dim ≤ initD, where round 0 reads the whole row and ends in
// the exact distance) or a tau of +Inf it keeps every id.
//
//resinfer:noalloc
func (ev *resEvaluator) Prune(ids []int32, tau float32, keep []int32) []int32 {
	ev.nSurv, ev.next = 0, 0
	if ev.pre == nil || math.IsInf(float64(tau), 1) {
		return ids
	}
	p := ev.parent
	ev.nSurv = p.pre.Prune(&ev.stats, ev.q, ids, ev.qNorm, ev.bound[0], tau, ev.flat[p.initD:], p.dim, ev.surv[:], ev.survC2[:])
	return append(keep, ev.surv[:ev.nSurv]...)
}

func (ev *resEvaluator) Stats() *core.Stats { return &ev.stats }
