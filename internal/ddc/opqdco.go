package ddc

import (
	"errors"
	"fmt"
	"math"

	"resinfer/internal/core"
	"resinfer/internal/learn"
	"resinfer/internal/pca"
	"resinfer/internal/quant"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// OPQConfig controls DDCopq: the data-driven correction over OPQ
// asymmetric distances (§V-B). Besides the approximate distance and the
// threshold, the classifier receives the candidate's quantization-residual
// norm ‖u − centroid(u)‖² as a third feature ("this additional feature
// further enhances the effectiveness of the linear model").
type OPQConfig struct {
	M     int // PQ subspaces; default Dim/4 capped at 64
	Nbits int // bits per code; default 8
	// OPQIters is the number of alternating rotation-optimization rounds.
	OPQIters int
	// OPQSample caps rows used for OPQ training (the paper samples 65536).
	OPQSample int
	// TargetRecall is the label-0 recall target; default 0.995.
	TargetRecall float64
	// DisableResidualFeature drops the quantization-residual feature from
	// the classifier (used by the feature-ablation benchmark). The zero
	// value keeps the feature on, matching the paper's configuration.
	DisableResidualFeature bool
	Seed                   int64
}

// OPQDCO is the DDCopq comparator.
type OPQDCO struct {
	data        *store.Matrix // original vectors for the exact fallback
	opq         *quant.OPQ
	codes       []byte
	resNorms    []float32
	clf         *learn.Classifier
	dim         int
	useResidual bool
}

// NewOPQ trains OPQ on data, encodes every point, collects labeled samples
// from trainQueries and fits the correction classifier.
func NewOPQ(data *store.Matrix, trainQueries [][]float32, cfg OPQConfig) (*OPQDCO, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("ddc: empty data")
	}
	dim := data.Dim()
	if cfg.M <= 0 {
		cfg.M = dim / 4
		if cfg.M > 64 {
			cfg.M = 64
		}
		if cfg.M < 1 {
			cfg.M = 1
		}
	}
	if cfg.Nbits <= 0 {
		cfg.Nbits = 8
	}
	if cfg.TargetRecall == 0 {
		cfg.TargetRecall = 0.995
	}
	if cfg.TargetRecall < 0 || cfg.TargetRecall > 1 {
		return nil, fmt.Errorf("ddc: target recall %v outside (0,1]", cfg.TargetRecall)
	}
	opq, err := quant.TrainOPQ(data, quant.OPQConfig{
		PQ:          quant.PQConfig{M: cfg.M, Nbits: cfg.Nbits, Seed: cfg.Seed},
		Iters:       cfg.OPQIters,
		TrainSample: cfg.OPQSample,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	codes, err := opq.EncodeAll(data)
	if err != nil {
		return nil, err
	}
	o := &OPQDCO{
		data:        data,
		opq:         opq,
		codes:       codes,
		resNorms:    make([]float32, data.Rows()),
		dim:         dim,
		useResidual: !cfg.DisableResidualFeature,
	}
	m := opq.PQ.M
	y := make([]float32, dim)
	dec := make([]float32, dim)
	for i := 0; i < data.Rows(); i++ {
		if err := opq.RotateInto(y, data.Row(i)); err != nil {
			return nil, err
		}
		if err := opq.PQ.DecodeInto(dec, codes[i*m:(i+1)*m]); err != nil {
			return nil, err
		}
		o.resNorms[i] = vec.L2Sq(y, dec)
	}
	if err := o.Retrain(trainQueries, cfg); err != nil {
		return nil, err
	}
	return o, nil
}

// Retrain refits the correction classifier on new training queries without
// retraining OPQ — the OOD mitigation of §V-C.
func (o *OPQDCO) Retrain(trainQueries [][]float32, cfg OPQConfig) error {
	if cfg.TargetRecall == 0 {
		cfg.TargetRecall = 0.995
	}
	samples, err := CollectSamples(o.data, trainQueries, cfg.Seed)
	if err != nil {
		return err
	}
	m := o.opq.PQ.M
	var feats [][]float64
	var labels []int
	for _, qs := range samples {
		lut, err := o.opq.BuildLUT(qs.Query)
		if err != nil {
			return err
		}
		for i, id := range qs.IDs {
			approx := lut.Distance(o.codes[id*m : (id+1)*m])
			f := []float64{float64(approx), float64(qs.Tau)}
			if o.useResidual {
				f = append(f, float64(o.resNorms[id]))
			}
			feats = append(feats, f)
			labels = append(labels, qs.Labels[i])
		}
	}
	clf, err := learn.Train(feats, labels, learn.Config{
		Seed:          cfg.Seed,
		TargetRecall0: cfg.TargetRecall,
	})
	if err != nil {
		return fmt.Errorf("ddc: opq classifier: %w", err)
	}
	o.clf = clf
	return nil
}

// Name implements core.DCO.
func (o *OPQDCO) Name() string { return "ddc-opq" }

// Size implements core.DCO.
func (o *OPQDCO) Size() int { return o.data.Rows() }

// Dim implements core.DCO.
func (o *OPQDCO) Dim() int { return o.dim }

// Model implements core.DCO: nil, since the OPQ rotation is part of the
// lookup table Reset builds, and the exact fallback reads the query as it
// arrives.
func (o *OPQDCO) Model() *pca.Model { return nil }

// ExtraBytes implements core.DCO: rotation, codes and residual norms
// (§VI-B's n·M·nbits bits plus the OPQ rotation).
func (o *OPQDCO) ExtraBytes() int64 {
	return o.opq.Rotation.Bytes() +
		int64(o.opq.PQ.CodeBytes(o.data.Rows())) +
		int64(len(o.resNorms))*4
}

// NewEvaluator implements core.DCO: the returned evaluator owns the
// asymmetric-distance lookup table and the rotation scratch. Its Reset
// rebuilds the table (O(D·2^nbits)), after which each approximate distance
// costs M table lookups.
func (o *OPQDCO) NewEvaluator() core.ResettableEvaluator {
	return &opqEvaluator{
		parent: o,
		flat:   o.data.Flat(),
		rot:    make([]float32, o.dim),
		lut:    &quant.LUT{Tab: make([]float32, o.opq.PQ.M*o.opq.PQ.K)},
	}
}

type opqEvaluator struct {
	parent *OPQDCO
	flat   []float32 // original vectors, row-major
	q      []float32 // caller query (exact fallbacks run in original space)
	rot    []float32 // rotated-query scratch for the LUT build
	lut    *quant.LUT
	stats  core.Stats
}

// Reset rebuilds the lookup table for q in place and zeroes the counters.
func (ev *opqEvaluator) Reset(q []float32) error {
	p := ev.parent
	if len(q) != p.dim {
		return errors.New("ddc: query dimension mismatch")
	}
	if err := p.opq.BuildLUTInto(ev.lut, ev.rot, q); err != nil {
		return err
	}
	ev.q = q
	ev.stats = core.Stats{}
	return nil
}

// ResetRotated implements core.ResettableEvaluator: with no Model, it is
// Reset.
func (ev *opqEvaluator) ResetRotated(q []float32) error { return ev.Reset(q) }

func (ev *opqEvaluator) Distance(id int) float32 {
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(ev.parent.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*ev.parent.dim)
}

// Compare scores the classifier on (dis'_opq, τ [, residual]); a prune
// vote discards the candidate with the asymmetric distance as the
// estimate, otherwise the exact distance is computed on the original
// vectors. Quantization has no incremental refinement, so the fallback is
// a single full scan (§V-B).
func (ev *opqEvaluator) Compare(id int, tau float32) (float32, bool) {
	ev.stats.Comparisons++
	p := ev.parent
	if math.IsInf(float64(tau), 1) {
		ev.stats.ExactDistances++
		ev.stats.DimsScanned += int64(p.dim)
		return vec.L2SqFlat(ev.q, ev.flat, id*p.dim), false
	}
	m := p.opq.PQ.M
	approx := ev.lut.Distance(p.codes[id*m : (id+1)*m])
	ev.stats.DimsScanned += int64(m) // M lookups stand in for M coordinates
	var feat [3]float64
	feat[0] = float64(approx)
	feat[1] = float64(tau)
	fs := feat[:2]
	if p.useResidual {
		feat[2] = float64(p.resNorms[id])
		fs = feat[:3]
	}
	if p.clf.Score(fs) > 0 {
		ev.stats.Pruned++
		return approx, true
	}
	ev.stats.ExactDistances++
	ev.stats.DimsScanned += int64(p.dim)
	return vec.L2SqFlat(ev.q, ev.flat, id*p.dim), false
}

// Prune implements core.ResettableEvaluator: it rules out nothing in
// bulk; its code lookup and classifier run row by row in Compare.
//
//resinfer:noalloc
func (ev *opqEvaluator) Prune(ids []int32, _ float32, _ []int32) []int32 { return ids }

func (ev *opqEvaluator) Stats() *core.Stats { return &ev.stats }
