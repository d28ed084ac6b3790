// Package learn implements the linear classifier of §V: logistic
// regression trained with stochastic gradient descent on binary
// cross-entropy loss, plus the paper's adaptive decision-boundary
// adjustment, which shifts the intercept until a target recall on label-0
// (keep) examples is met. The classifier converts an arbitrary approximate
// distance into a pruning rule: label 1 means dis > τ (prune), label 0
// means dis ≤ τ (keep).
package learn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config controls training.
type Config struct {
	Epochs       int     // SGD passes over the data; default 30
	LearningRate float64 // default 0.1
	L2           float64 // ridge penalty; default 1e-6
	Seed         int64
	// TargetRecall0 is the required recall on label-0 examples after the
	// boundary adjustment (the paper's r, default 0.995). Zero disables
	// the adjustment.
	TargetRecall0 float64
}

// Classifier is a trained linear model over standardized features:
// score(x) = w·((x-mean)/std) + b, predicted label = 1 iff score > 0.
type Classifier struct {
	W    []float64
	B    float64
	Mean []float64
	Std  []float64
}

// Train fits a logistic-regression classifier on features X (rows) and
// labels y ∈ {0, 1}. Features are standardized internally.
func Train(x [][]float64, y []int, cfg Config) (*Classifier, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, errors.New("learn: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("learn: %d rows vs %d labels", len(x), len(y))
	}
	dim := len(x[0])
	var n0, n1 int
	for i, row := range x {
		if len(row) != dim {
			return nil, errors.New("learn: ragged features")
		}
		switch y[i] {
		case 0:
			n0++
		case 1:
			n1++
		default:
			return nil, fmt.Errorf("learn: label %d not in {0,1}", y[i])
		}
	}
	if n0 == 0 || n1 == 0 {
		return nil, errors.New("learn: training set needs both classes")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.L2 < 0 {
		cfg.L2 = 0
	}

	c := &Classifier{
		W:    make([]float64, dim),
		Mean: make([]float64, dim),
		Std:  make([]float64, dim),
	}
	// Standardization statistics.
	for _, row := range x {
		for j, v := range row {
			c.Mean[j] += v
		}
	}
	for j := range c.Mean {
		c.Mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - c.Mean[j]
			c.Std[j] += d * d
		}
	}
	for j := range c.Std {
		c.Std[j] = math.Sqrt(c.Std[j] / float64(len(x)))
		if c.Std[j] < 1e-12 {
			c.Std[j] = 1 // constant feature: no scaling
		}
	}

	// SGD over BCE loss with per-epoch shuffling and 1/sqrt(t) decay.
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(x))
	feat := make([]float64, dim)
	step := cfg.LearningRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := step / math.Sqrt(float64(epoch+1))
		for _, i := range order {
			row := x[i]
			for j, v := range row {
				feat[j] = (v - c.Mean[j]) / c.Std[j]
			}
			z := c.B
			for j, v := range feat {
				z += c.W[j] * v
			}
			p := sigmoid(z)
			g := p - float64(y[i]) // dBCE/dz
			for j, v := range feat {
				c.W[j] -= lr * (g*v + cfg.L2*c.W[j])
			}
			c.B -= lr * g
		}
	}

	if cfg.TargetRecall0 > 0 {
		if err := c.AdjustBoundary(x, y, cfg.TargetRecall0); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Score returns the decision value w·standardize(x) + b; label 1 (prune)
// is predicted when the score is positive.
func (c *Classifier) Score(x []float64) float64 {
	z := c.B
	for j, v := range x {
		z += c.W[j] * (v - c.Mean[j]) / c.Std[j]
	}
	return z
}

// AdjustBoundary shifts the intercept B so that the label-0 recall on the
// given set — the fraction of label-0 rows predicted 0; a label-0 row
// predicted 1 is a wrongly pruned true neighbor — is at least target while
// pruning as aggressively as possible. §V formulates
// this as a binary search on the shifted intercept β'; shifting until
// exactly the (1-target) quantile of label-0 scores sits at the boundary is
// the same fixed point, computed here directly from the sorted label-0
// scores.
func (c *Classifier) AdjustBoundary(x [][]float64, y []int, target float64) error {
	if target <= 0 || target > 1 {
		return fmt.Errorf("learn: target recall %v outside (0,1]", target)
	}
	scores0 := make([]float64, 0, len(x))
	for i, row := range x {
		if y[i] == 0 {
			scores0 = append(scores0, c.Score(row))
		}
	}
	if len(scores0) == 0 {
		return errors.New("learn: no label-0 examples to calibrate on")
	}
	sort.Float64s(scores0)
	// We need at least ceil(target*n0) label-0 scores <= 0 after the
	// shift. Place the boundary just above the k-th order statistic.
	k := int(math.Ceil(target*float64(len(scores0)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(scores0) {
		k = len(scores0) - 1
	}
	shift := scores0[k]
	if shift > 0 {
		// Move boundary up: scores at or below scores0[k] become <= 0.
		c.B -= shift + 1e-12
	} else {
		// The model is already conservative enough; pull the boundary
		// down toward the quantile to regain pruning power.
		c.B -= shift + 1e-12
	}
	return nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
