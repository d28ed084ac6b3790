package quant

import (
	"errors"
	"fmt"
	"math/rand"

	"resinfer/internal/matrix"
	"resinfer/internal/store"
	"resinfer/internal/vec"
)

// OPQConfig controls Optimized Product Quantization training.
type OPQConfig struct {
	PQ PQConfig
	// Iters is the number of alternating (PQ-train, Procrustes) rounds of
	// the non-parametric OPQ optimization; default 5.
	Iters int
	// TrainSample caps the rows used during rotation optimization (each
	// round costs an SVD plus a PQ training); default 16384, matching the
	// paper's 65536-row OPQ sample in spirit at our scaled-down sizes.
	// 0 means use all rows.
	TrainSample int
	Seed        int64
}

// OPQ is a trained optimized product quantizer: an orthogonal rotation R
// followed by a PQ in the rotated space.
type OPQ struct {
	Rotation *store.Matrix // D x D; applied as y = R x
	PQ       *PQ
}

// TrainOPQ fits OPQ on the rows of data using non-parametric alternating
// optimization (Ge et al., TPAMI 2014): rotate, train PQ, reconstruct,
// re-solve the rotation by Procrustes, repeat.
func TrainOPQ(data *store.Matrix, cfg OPQConfig) (*OPQ, error) {
	if data == nil || data.Rows() == 0 {
		return nil, errors.New("quant: empty training data")
	}
	d := data.Dim()
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	if cfg.TrainSample == 0 {
		cfg.TrainSample = 16384
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sampleIdx := randPerm(data.Rows(), cfg.TrainSample, rng)
	sample, err := store.New(len(sampleIdx), d)
	if err != nil {
		return nil, err
	}
	for i, j := range sampleIdx {
		sample.SetRow(i, data.Row(j))
	}

	rot := matrix.Identity(d).F32()
	rotated, err := store.New(sample.Rows(), d)
	if err != nil {
		return nil, err
	}
	var pq *PQ
	rec := make([]float32, d)
	code := make([]byte, 0)
	for iter := 0; iter < cfg.Iters; iter++ {
		matrix.RotateRows(rotated, rot, sample)
		pqCfg := cfg.PQ
		pqCfg.Seed = cfg.Seed + int64(iter)
		// Cheap codebooks during the alternation; the final full training
		// happens after the loop.
		if pqCfg.TrainIters <= 0 {
			pqCfg.TrainIters = 8
		}
		pq, err = TrainPQ(rotated, pqCfg)
		if err != nil {
			return nil, fmt.Errorf("quant: OPQ iter %d: %w", iter, err)
		}
		if iter == cfg.Iters-1 {
			break // rotation from this round would be unused
		}
		if len(code) != pq.M {
			code = make([]byte, pq.M)
		}
		// Cross-covariance C = Σ x_i y_i^T between original rows x and
		// reconstructed rotated rows y; the Procrustes solution R = V U^T
		// maximizes tr(R C), i.e. minimizes Σ ||R x_i - y_i||².
		c := matrix.New(d, d)
		for i := 0; i < sample.Rows(); i++ {
			if err := pq.EncodeInto(code, rotated.Row(i)); err != nil {
				return nil, err
			}
			if err := pq.DecodeInto(rec, code); err != nil {
				return nil, err
			}
			row := sample.Row(i)
			for a := 0; a < d; a++ {
				xa := float64(row[a])
				if xa == 0 {
					continue
				}
				crow := c.Row(a)
				for b := 0; b < d; b++ {
					crow[b] += xa * float64(rec[b])
				}
			}
		}
		newRot, err := matrix.Procrustes(c)
		if err != nil {
			return nil, fmt.Errorf("quant: OPQ Procrustes: %w", err)
		}
		rot = newRot.F32()
	}
	// Final codebooks trained at full strength in the final rotation.
	matrix.RotateRows(rotated, rot, sample)
	finalCfg := cfg.PQ
	finalCfg.Seed = cfg.Seed + 1_000_003
	finalPQ, err := TrainPQ(rotated, finalCfg)
	if err != nil {
		return nil, err
	}
	return &OPQ{Rotation: rot, PQ: finalPQ}, nil
}

// RotateInto applies the learned rotation to x into dst (length Dim),
// allocating nothing. dst must not alias x.
func (o *OPQ) RotateInto(dst, x []float32) error {
	if len(x) != o.PQ.Dim || len(dst) != o.PQ.Dim {
		return fmt.Errorf("quant: RotateInto lens %d -> %d, want %d", len(x), len(dst), o.PQ.Dim)
	}
	vec.MatVec(dst, o.Rotation.Flat(), o.PQ.Dim, x)
	return nil
}

// EncodeAll rotates and quantizes every row into a flat code array.
func (o *OPQ) EncodeAll(data *store.Matrix) ([]byte, error) {
	codes := make([]byte, data.Rows()*o.PQ.M)
	y := make([]float32, o.PQ.Dim)
	for i := 0; i < data.Rows(); i++ {
		if err := o.RotateInto(y, data.Row(i)); err != nil {
			return nil, err
		}
		if err := o.PQ.EncodeInto(codes[i*o.PQ.M:(i+1)*o.PQ.M], y); err != nil {
			return nil, err
		}
	}
	return codes, nil
}

// BuildLUT rotates the query and builds the asymmetric-distance table in
// the rotated space.
func (o *OPQ) BuildLUT(q []float32) (*LUT, error) {
	lut := &LUT{}
	if err := o.BuildLUTInto(lut, make([]float32, o.PQ.Dim), q); err != nil {
		return nil, err
	}
	return lut, nil
}

// BuildLUTInto rotates q into rotScratch (length Dim) and fills lut,
// reusing lut.Tab — the allocation-free path for pooled evaluators.
func (o *OPQ) BuildLUTInto(lut *LUT, rotScratch, q []float32) error {
	if err := o.RotateInto(rotScratch, q); err != nil {
		return err
	}
	return o.PQ.BuildLUTInto(lut, rotScratch)
}
