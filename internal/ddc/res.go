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
	// rule highlighted in Fig. 2). Convert coverage probabilities with
	// stats.NormalQuantile.
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
	// Workers parallelizes the one-time data rotation; default GOMAXPROCS.
	Workers int
}

// Res is the DDCres comparator.
type Res struct {
	rotated *store.Matrix
	norms   []float32 // ‖x−μ‖² per point in the rotated space
	model   *pca.Model
	dim     int
	m       float32
	initD   int
	deltaD  int
}

// NewRes trains PCA on data and builds DDCres over a rotated copy it owns.
func NewRes(data *store.Matrix, cfg ResConfig) (*Res, error) {
	rotated, model, err := project(data, cfg.PCASample, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return NewResRotated(rotated, model, cfg)
}

// project trains PCA on data and rotates data's rows into its basis.
func project(data *store.Matrix, sample int, seed int64, workers int) (*store.Matrix, *pca.Model, error) {
	model, err := pca.Train(pca.Config{SampleSize: sample, Seed: seed}, data)
	if err != nil {
		return nil, nil, err
	}
	rotated, err := model.ProjectMatrix(data, workers)
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
	for i := 0; i < rotated.Rows(); i++ {
		r.norms[i] = vec.NormSq(rotated.Row(i))
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
// per-point norms (§VII Exp-3's space accounting for DDCres). Inside an
// index that is all it adds: the rotated rows are the index's one copy of
// its rows, which a PCA mode re-bases rather than duplicates. A standalone
// NewRes also owns a rotated copy of the rows it was given.
func (r *Res) ExtraBytes() int64 {
	return r.model.Rotation.Bytes() + int64(len(r.norms))*4
}

// Model exposes the PCA model (variance spectrum, rotation) for
// diagnostics and the figure experiments.
func (r *Res) Model() *pca.Model { return r.model }

// LeadShare is the share of Σσ² the rotation puts in the dimensions the
// first correction round scans. A rotation inherited across compactions
// ages as this falls towards initD/D, the share of a random rotation.
func (r *Res) LeadShare() float64 { return r.model.VarianceExplained(r.initD) }

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
// rotated-query buffer, the centering scratch and the σ table. Its Reset
// rotates q (O(D²)) and fills the σ table: sqrt(4·Σ_{i≥d} q_i²σ_i²) at every
// depth d a correction round stops at, so each round reads its error bound
// in O(1).
func (r *Res) NewEvaluator() core.ResettableEvaluator {
	return &resEvaluator{
		parent: r,
		flat:   r.rotated.Flat(),
		q:      make([]float32, r.dim),
		cent:   make([]float32, r.dim),
		sigma:  make([]float32, r.rounds()),
	}
}

type resEvaluator struct {
	parent *Res
	flat   []float32 // rotated vectors, row-major
	q      []float32 // rotated query (owned scratch)
	cent   []float32 // centering scratch for the PCA projection
	qNorm  float32
	sigma  []float32 // error-bound σ at depth initD + k·deltaD
	stats  core.Stats
}

// Reset projects q into the evaluator's scratch, rebuilds the σ table and
// zeroes the counters.
func (ev *resEvaluator) Reset(q []float32) error {
	if err := ev.Rotate(ev.q, q); err != nil {
		return err
	}
	return ev.ResetRotated(ev.q)
}

// Rotation implements core.RotatingEvaluator.
func (ev *resEvaluator) Rotation() *store.Matrix { return ev.parent.model.Rotation }

// Rotate implements core.RotatingEvaluator: the PCA projection of q.
func (ev *resEvaluator) Rotate(dst, q []float32) error {
	return ev.parent.model.ProjectInto(dst, q, ev.cent)
}

// ResetRotated implements core.RotatingEvaluator: everything Reset does
// after the rotation, all of it linear in D.
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
	for k := len(ev.sigma) - 1; k >= 0; k-- {
		lo := p.initD + k*p.deltaD
		for i := hi - 1; i >= lo; i-- {
			t := float64(ev.q[i]) * float64(sig[i])
			s += t * t
		}
		ev.sigma[k] = float32(math.Sqrt(4 * s))
		hi = lo
	}
	ev.qNorm = vec.NormSq(ev.q)
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
	var c2 float32
	d := 0
	next := p.initD
	for k := 0; ; k++ {
		if next > p.dim {
			next = p.dim
		}
		c2 += 2 * vec.DotRangeFlat(ev.q, ev.flat, base, d, next)
		ev.stats.DimsScanned += int64(next - d)
		d = next
		approx := c1 - c2
		if d >= p.dim {
			// All dimensions consumed: the decomposition is exact
			// (C3 folded into C2). Clamp float cancellation noise.
			if approx < 0 {
				approx = 0
			}
			ev.stats.ExactDistances++
			return approx, false
		}
		if approx-p.m*ev.sigma[k] > tau {
			ev.stats.Pruned++
			return approx, true
		}
		next = d + p.deltaD
	}
}

func (ev *resEvaluator) Stats() *core.Stats { return &ev.stats }
