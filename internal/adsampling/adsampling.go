// Package adsampling implements the ADSampling distance comparison
// operator of Gao & Long (SIGMOD 2023) — the state of the art the paper
// improves on (§III). Vectors are rotated by a random orthogonal matrix;
// at query time the squared distance is accumulated over increasing
// prefixes of the rotated coordinates and a Johnson–Lindenstrauss
// hypothesis test decides after each increment whether the candidate can
// already be pruned: with partial distance dis'_d over d of D dimensions,
// prune when
//
//	dis'_d · (D/d) > τ · (1 + ε0/√d)²
//
// which is the squared form of the paper's √(D/d)·‖·‖ > (1+ε0/√d)·√τ test.
// ε0 trades pruning aggressiveness against failure probability 2e^(-c·ε0²).
//
// The random orthogonal matrix is held as a mean-free pca.Model (Mean nil:
// it projects by the rotation alone, which is vec.MatVec), the one type the
// index shares, inherits and persists rotations in, whatever comparator they
// belong to. The comparator writes and reads its own RIADS3 stream.
package adsampling

import (
	"errors"
	"math"
	"math/rand"

	"resinfer/internal/core"
	"resinfer/internal/matrix"
	"resinfer/internal/pca"
	"resinfer/internal/persist"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// Config controls the DCO.
type Config struct {
	// Epsilon0 is the hypothesis-test significance parameter; the
	// ADSampling authors recommend ~2.1.
	Epsilon0 float64
	// DeltaD is the dimension increment per test round; default 32.
	DeltaD int
	Seed   int64
}

// DCO is the ADSampling comparator.
type DCO struct {
	rotated *store.Matrix
	model   *pca.Model // mean-free: Rotation is the D x D random orthogonal matrix
	dim     int
	eps0    float64
	deltaD  int
	// factors[d] caches (1+eps0/sqrt(d))^2 * d / D for each test depth d,
	// so the per-round prune test is one multiply and one compare:
	// prune iff partial > tau * factors[d].
	factors []float32
}

func (cfg *Config) withDefaults(dim int) {
	if cfg.Epsilon0 <= 0 {
		cfg.Epsilon0 = 2.1
	}
	if cfg.DeltaD <= 0 {
		cfg.DeltaD = 32
	}
	if cfg.DeltaD > dim {
		cfg.DeltaD = dim
	}
}

// New builds the DCO by rotating data with a fresh random orthogonal
// matrix drawn from cfg.Seed.
func New(data *store.Matrix, cfg Config) (*DCO, error) {
	return NewFromModel(data, nil, cfg)
}

// NewRotation draws the dim x dim random orthogonal matrix of seed, as the
// mean-free model every rotating comparator is built around.
func NewRotation(dim int, seed int64) *pca.Model {
	return &pca.Model{Dim: dim, Rotation: matrix.RandomOrthogonal(dim, rand.New(rand.NewSource(seed))).F32()}
}

// NewFromModel builds the DCO over data around a rotation drawn elsewhere —
// once for all shards of a sharded index, or for the base a compaction
// replaces — which it shares (Model() is the same pointer); nil draws one
// from cfg.Seed.
func NewFromModel(data *store.Matrix, model *pca.Model, cfg Config) (*DCO, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("adsampling: empty data")
	}
	if model == nil {
		model = NewRotation(data.Dim(), cfg.Seed)
	}
	rotated, err := model.ProjectMatrix(data, 0)
	if err != nil {
		return nil, err
	}
	cfg.withDefaults(model.Dim)
	return newDCO(rotated, model, cfg), nil
}

// NewWithRotation builds the DCO reusing pre-rotated data and its rotation
// matrix (used by tests and by Decode).
func NewWithRotation(rotated, rot *store.Matrix, cfg Config) (*DCO, error) {
	if rotated == nil || rotated.Rows() == 0 {
		return nil, errors.New("adsampling: empty data")
	}
	dim := rotated.Dim()
	if rot == nil || rot.Rows() != dim || rot.Dim() != dim {
		return nil, errors.New("adsampling: rotation shape mismatch")
	}
	cfg.withDefaults(dim)
	return newDCO(rotated, &pca.Model{Dim: dim, Rotation: rot}, cfg), nil
}

func newDCO(rotated *store.Matrix, model *pca.Model, cfg Config) *DCO {
	dim := rotated.Dim()
	d := &DCO{
		rotated: rotated,
		model:   model,
		dim:     dim,
		eps0:    cfg.Epsilon0,
		deltaD:  cfg.DeltaD,
		factors: make([]float32, dim+1),
	}
	for k := 1; k <= dim; k++ {
		mult := 1 + cfg.Epsilon0/math.Sqrt(float64(k))
		d.factors[k] = float32(mult * mult * float64(k) / float64(dim))
	}
	return d
}

// Name implements core.DCO.
func (d *DCO) Name() string { return "adsampling" }

// Size implements core.DCO.
func (d *DCO) Size() int { return d.rotated.Rows() }

// Dim implements core.DCO.
func (d *DCO) Dim() int { return d.dim }

// ExtraBytes implements core.DCO: the D×D rotation matrix, D² floats as in
// the paper's Exp-3 space accounting.
func (d *DCO) ExtraBytes() int64 { return d.model.Rotation.Bytes() }

// Model exposes the mean-free model holding the rotation matrix.
func (d *DCO) Model() *pca.Model { return d.model }

// DeltaD returns the effective dimension increment per test round.
func (d *DCO) DeltaD() int { return d.deltaD }

// Rotated exposes the rotated vectors (read-only by convention); used by
// the approximation-accuracy experiment (Table III).
func (d *DCO) Rotated() *store.Matrix { return d.rotated }

// NewEvaluator implements core.DCO: the returned evaluator owns a
// reusable rotated-query buffer.
func (d *DCO) NewEvaluator() core.ResettableEvaluator {
	return &evaluator{parent: d, flat: d.rotated.Flat(), q: make([]float32, d.dim)}
}

type evaluator struct {
	parent *DCO
	flat   []float32 // rotated vectors, row-major
	q      []float32 // rotated query (owned scratch)
	stats  core.Stats
}

// Reset rotates q into the evaluator's scratch and zeroes the counters.
func (ev *evaluator) Reset(q []float32) error {
	if err := ev.Rotate(ev.q, q); err != nil {
		return err
	}
	return ev.ResetRotated(ev.q)
}

// Rotation implements core.RotatingEvaluator.
func (ev *evaluator) Rotation() *store.Matrix { return ev.parent.model.Rotation }

// Rotate implements core.RotatingEvaluator.
func (ev *evaluator) Rotate(dst, q []float32) error {
	if len(q) != ev.parent.dim || len(dst) != ev.parent.dim {
		return errors.New("adsampling: query dimension mismatch")
	}
	vec.MatVec(dst, ev.parent.model.Rotation.Flat(), ev.parent.dim, q)
	return nil
}

// ResetRotated implements core.RotatingEvaluator.
func (ev *evaluator) ResetRotated(rq []float32) error {
	if len(rq) != ev.parent.dim {
		return errors.New("adsampling: query dimension mismatch")
	}
	copy(ev.q, rq)
	ev.stats = core.Stats{}
	return nil
}

func (ev *evaluator) Distance(id int) float32 {
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.parent.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*ev.parent.dim)
}

func (ev *evaluator) Compare(id int, tau float32) (float32, bool) {
	ev.stats.Comparisons++
	p := ev.parent
	base := id * p.dim
	if math.IsInf(float64(tau), 1) {
		ev.stats.ExactDistances++
		ev.stats.DimsScanned += int64(p.dim)
		return vec.L2SqFlat(ev.q, ev.flat, base), false
	}
	var partial float32
	d := 0
	for d < p.dim {
		next := d + p.deltaD
		if next > p.dim {
			next = p.dim
		}
		partial += vec.L2SqRangeFlat(ev.q, ev.flat, base, d, next)
		ev.stats.DimsScanned += int64(next - d)
		d = next
		if d < p.dim && partial > tau*p.factors[d] {
			ev.stats.Pruned++
			// Scaled partial distance as the approximate estimate.
			return partial * float32(p.dim) / float32(d), true
		}
	}
	ev.stats.ExactDistances++
	return partial, false
}

func (ev *evaluator) Stats() *core.Stats { return &ev.stats }

// Version 3 writes the rotation as a pca.Model, once per stream however
// many comparators share it.
const magic = "RIADS3"

// Encode writes the comparator (tuning, rotation, rotated vectors) onto an
// existing persist stream. The tuning is the comparator's own: Enable may
// have trained it with per-call options.
func (d *DCO) Encode(pw *persist.Writer) {
	pw.Magic(magic)
	pw.F64(d.eps0)
	pw.Int(d.deltaD)
	d.model.Encode(pw)
	d.rotated.Encode(pw)
}

// Decode reads a comparator previously written by Encode. Comparators that
// shared a rotation when saved share one again.
func Decode(pr *persist.Reader) (*DCO, error) {
	pr.Magic(magic)
	eps := pr.F64()
	deltaD := pr.Int()
	model, err := pca.Decode(pr)
	if err != nil {
		return nil, err
	}
	rotated, err := store.Decode(pr)
	if err != nil {
		return nil, err
	}
	return NewWithRotation(rotated, model.Rotation, Config{Epsilon0: eps, DeltaD: deltaD})
}
