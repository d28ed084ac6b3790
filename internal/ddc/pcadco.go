package ddc

import (
	"errors"
	"fmt"
	"math"

	"resinfer/internal/core"
	"resinfer/internal/learn"
	"resinfer/internal/pca"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// PCAConfig controls DDCpca: the data-driven correction over plain PCA
// projected distances (§V-B, "we use a straightforward PCA projection as an
// approximate distance measure without applying the decomposition").
// Classifiers are trained at the projection depths 32, 64, 128, ... below
// Dim (Incremental Correction, §V-B), or at Dim/2 when Dim ≤ 32.
type PCAConfig struct {
	// TargetRecall is the label-0 recall target r for the adaptive
	// boundary adjustment; default 0.995 (Exp-2's best tradeoff).
	TargetRecall float64
	Seed         int64
}

// PCADCO is the DDCpca comparator.
type PCADCO struct {
	rotated     *store.Matrix
	model       *pca.Model
	classifiers []*learn.Classifier
	levels      []int
	dim         int
	// varTail[li] is Σ_{i≥levels[li]} σ_i²: the expected square of the
	// unscanned coordinates of a row, which the PCA basis centres.
	varTail []float32
}

// NewPCA trains PCA, collects labeled samples from trainQueries, and fits
// one linear classifier per projection level, over a rotated copy it owns.
func NewPCA(data *store.Matrix, trainQueries [][]float32, cfg PCAConfig) (*PCADCO, error) {
	rotated, model, err := project(data, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewPCARotated(rotated, trainQueries, model, cfg)
}

// NewPCARotated is NewPCA over rows model already projected, sharing both
// (see NewResRotated).
func NewPCARotated(rotated *store.Matrix, trainQueries [][]float32, model *pca.Model, cfg PCAConfig) (*PCADCO, error) {
	dim := model.Dim
	if cfg.TargetRecall == 0 {
		cfg.TargetRecall = 0.995
	}
	if cfg.TargetRecall < 0 || cfg.TargetRecall > 1 {
		return nil, fmt.Errorf("ddc: target recall %v outside (0,1]", cfg.TargetRecall)
	}
	if dim < 2 {
		return nil, fmt.Errorf("ddc: DDCpca needs at least 2 dimensions, got %d", dim)
	}
	var levels []int
	for d := 32; d < dim; d *= 2 {
		levels = append(levels, d)
	}
	if len(levels) == 0 { // dim <= 32
		levels = []int{dim / 2}
	}

	p := &PCADCO{rotated: rotated, model: model, levels: levels, dim: dim}
	p.fillVarTail()
	if err := p.Retrain(trainQueries, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// fillVarTail sums the model's variances beyond each level.
func (p *PCADCO) fillVarTail() {
	p.varTail = make([]float32, len(p.levels))
	for li, level := range p.levels {
		var s float64
		for _, v := range p.model.Variances[level:] {
			s += v
		}
		p.varTail[li] = float32(s)
	}
}

// Name implements core.DCO.
func (p *PCADCO) Name() string { return "ddc-pca" }

// Size implements core.DCO.
func (p *PCADCO) Size() int { return p.rotated.Rows() }

// Dim implements core.DCO.
func (p *PCADCO) Dim() int { return p.dim }

// ExtraBytes implements core.DCO: rotation matrix plus the (negligible)
// classifier parameters.
func (p *PCADCO) ExtraBytes() int64 {
	clf := int64(0)
	for _, c := range p.classifiers {
		clf += int64(len(c.W)+len(c.Mean)+len(c.Std)+1) * 8
	}
	return p.model.Rotation.Bytes() + clf
}

// Model exposes the PCA model the comparator rotates with.
func (p *PCADCO) Model() *pca.Model { return p.model }

// Levels exposes the trained projection depths.
func (p *PCADCO) Levels() []int { return p.levels }

// Retrain refits the per-level classifiers on new training queries without
// touching the PCA model or rotated data — the OOD mitigation of §V-C
// (retraining with ~100 OOD queries).
func (p *PCADCO) Retrain(trainQueries [][]float32, cfg PCAConfig) error {
	if cfg.TargetRecall == 0 {
		cfg.TargetRecall = 0.995
	}
	if len(trainQueries) == 0 {
		return errors.New("ddc: no training queries")
	}
	// Collect labeled samples in the ROTATED space: rotation preserves
	// exact distances, and the approximate distance at level l is the
	// prefix distance over the first l rotated coordinates.
	rq := make([][]float32, len(trainQueries))
	cent := make([]float32, p.dim)
	for i, q := range trainQueries {
		rq[i] = make([]float32, p.dim)
		if err := p.model.ProjectInto(rq[i], q, cent); err != nil {
			return fmt.Errorf("ddc: training query %d: %w", i, err)
		}
	}
	samples, err := CollectSamples(p.rotated, rq, cfg.Seed)
	if err != nil {
		return err
	}
	classifiers := make([]*learn.Classifier, len(p.levels))
	for li, level := range p.levels {
		var feats [][]float64
		var labels []int
		for _, qs := range samples {
			for i, id := range qs.IDs {
				approx := vec.L2SqRange(qs.Query, p.rotated.Row(id), 0, level)
				feats = append(feats, []float64{float64(approx), float64(qs.Tau)})
				labels = append(labels, qs.Labels[i])
			}
		}
		clf, err := learn.Train(feats, labels, learn.Config{
			Seed:          cfg.Seed + int64(li),
			TargetRecall0: cfg.TargetRecall,
		})
		if err != nil {
			return fmt.Errorf("ddc: level %d classifier: %w", level, err)
		}
		classifiers[li] = clf
	}
	p.classifiers = classifiers
	return nil
}

// NewEvaluator implements core.DCO: the returned evaluator owns the
// rotated-query buffer, the centering scratch and the tail table.
func (p *PCADCO) NewEvaluator() core.ResettableEvaluator {
	return &pcaEvaluator{
		parent: p,
		flat:   p.rotated.Flat(),
		q:      make([]float32, p.dim),
		cent:   make([]float32, p.dim),
		tail:   make([]float32, len(p.levels)),
	}
}

type pcaEvaluator struct {
	parent *PCADCO
	flat   []float32 // rotated vectors, row-major
	q      []float32 // rotated query (owned scratch)
	cent   []float32 // centering scratch
	// tail[li] is Σ_{i≥levels[li]} (q_i² + σ_i²), the expected distance
	// over the coordinates a prune at that level leaves unscanned.
	tail  []float32
	stats core.Stats
}

// Reset projects q into the evaluator's scratch and zeroes the counters.
func (ev *pcaEvaluator) Reset(q []float32) error {
	if err := ev.parent.model.ProjectInto(ev.q, q, ev.cent); err != nil {
		return err
	}
	return ev.ResetRotated(ev.q)
}

// ResetRotated implements core.ResettableEvaluator.
func (ev *pcaEvaluator) ResetRotated(rq []float32) error {
	if len(rq) != ev.parent.dim {
		return errors.New("ddc: rotated query dimension mismatch")
	}
	copy(ev.q, rq)
	for li, level := range ev.parent.levels {
		ev.tail[li] = vec.NormSq(ev.q[level:]) + ev.parent.varTail[li]
	}
	ev.stats = core.Stats{}
	return nil
}

func (ev *pcaEvaluator) Distance(id int) float32 {
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.parent.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*ev.parent.dim)
}

// Compare accumulates the prefix distance level by level; at each trained
// level the classifier votes on (dis'_l, τ). The first prune vote discards
// the candidate and returns the prefix plus the expected tail, an estimate
// of the full distance; if no level prunes, the scan completes and the
// distance is exact.
func (ev *pcaEvaluator) Compare(id int, tau float32) (float32, bool) {
	ev.stats.Comparisons++
	p := ev.parent
	base := id * p.dim
	if math.IsInf(float64(tau), 1) {
		ev.stats.ExactDistances++
		ev.stats.DimsScanned += int64(p.dim)
		return vec.L2SqFlat(ev.q, ev.flat, base), false
	}
	var partial float32
	prev := 0
	feat := [2]float64{0, float64(tau)}
	for li, level := range p.levels {
		partial += vec.L2SqRangeFlat(ev.q, ev.flat, base, prev, level)
		ev.stats.DimsScanned += int64(level - prev)
		prev = level
		feat[0] = float64(partial)
		if p.classifiers[li].Score(feat[:]) > 0 {
			ev.stats.Pruned++
			return partial + ev.tail[li], true
		}
	}
	partial += vec.L2SqRangeFlat(ev.q, ev.flat, base, prev, p.dim)
	ev.stats.DimsScanned += int64(p.dim - prev)
	ev.stats.ExactDistances++
	return partial, false
}

// Prune implements core.ResettableEvaluator: it rules out nothing in
// bulk; its classifiers vote row by row in Compare.
//
//resinfer:noalloc
func (ev *pcaEvaluator) Prune(ids []int32, _ float32, _ []int32) []int32 { return ids }

func (ev *pcaEvaluator) Stats() *core.Stats { return &ev.stats }
