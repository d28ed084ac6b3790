package learn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// separable2D builds a linearly separable 2-feature problem with the given
// margin between the classes.
func separable2D(r *rand.Rand, n int, margin float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		lab := i % 2
		base := -margin
		if lab == 1 {
			base = margin
		}
		x[i] = []float64{base + 0.3*r.NormFloat64(), r.NormFloat64()}
		y[i] = lab
	}
	return x, y
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 2}, Config{}); err == nil {
		t.Fatal("expected bad-label error")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, 0}, Config{}); err == nil {
		t.Fatal("expected one-class error")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); err == nil {
		t.Fatal("expected ragged error")
	}
}

// predict is the label the classifier's decision boundary assigns x.
func predict(c *Classifier, x []float64) int {
	if c.Score(x) > 0 {
		return 1
	}
	return 0
}

func TestTrainSeparable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x, y := separable2D(r, 2000, 2.0)
	c, err := Train(x, y, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if predict(c, x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.98 {
		t.Fatalf("accuracy %v on separable data", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x, y := separable2D(r, 400, 1.0)
	a, err := Train(x, y, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Train(x, y, Config{Seed: 3})
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("same seed must give identical weights")
		}
	}
	if a.B != b.B {
		t.Fatal("same seed must give identical bias")
	}
}

// recall is the fraction of rows labelled label that c predicts as label
// (1 when there are none): label 0 is the safety AdjustBoundary guarantees,
// label 1 the pruning power it gives up.
func recall(c *Classifier, x [][]float64, y []int, label int) float64 {
	var n, ok int
	for i, row := range x {
		if y[i] != label {
			continue
		}
		n++
		if predict(c, row) == label {
			ok++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(ok) / float64(n)
}

func TestAdjustBoundaryMeetsTarget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Overlapping classes: unadjusted model will misclassify some label-0.
	x := make([][]float64, 4000)
	y := make([]int, 4000)
	for i := range x {
		lab := i % 2
		center := -0.5
		if lab == 1 {
			center = 0.5
		}
		x[i] = []float64{center + r.NormFloat64()}
		y[i] = lab
	}
	for _, target := range []float64{0.9, 0.99, 0.999} {
		c, err := Train(x, y, Config{Seed: 5, TargetRecall0: target})
		if err != nil {
			t.Fatal(err)
		}
		got := recall(c, x, y, 0)
		if got < target {
			t.Errorf("target %v: recall0 = %v", target, got)
		}
	}
}

func TestAdjustBoundaryTradesPruningPower(t *testing.T) {
	// Higher recall targets must not increase label-1 recall (pruning
	// power is monotonically sacrificed).
	r := rand.New(rand.NewSource(4))
	x := make([][]float64, 3000)
	y := make([]int, 3000)
	for i := range x {
		lab := i % 2
		center := -0.4
		if lab == 1 {
			center = 0.4
		}
		x[i] = []float64{center + r.NormFloat64()}
		y[i] = lab
	}
	base, err := Train(x, y, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for _, target := range []float64{0.9, 0.99, 0.999} {
		c := &Classifier{W: append([]float64(nil), base.W...), B: base.B,
			Mean: base.Mean, Std: base.Std}
		if err := c.AdjustBoundary(x, y, target); err != nil {
			t.Fatal(err)
		}
		r1 := recall(c, x, y, 1)
		if r1 > prev+1e-9 {
			t.Fatalf("recall1 %v increased while tightening target %v", r1, target)
		}
		prev = r1
	}
}

func TestAdjustBoundaryErrors(t *testing.T) {
	c := &Classifier{W: []float64{1}, Mean: []float64{0}, Std: []float64{1}}
	if err := c.AdjustBoundary([][]float64{{1}}, []int{1}, 0.99); err == nil {
		t.Fatal("expected no-label-0 error")
	}
	if err := c.AdjustBoundary([][]float64{{1}}, []int{0}, 1.5); err == nil {
		t.Fatal("expected target range error")
	}
}

func TestConstantFeatureDoesNotNaN(t *testing.T) {
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []int{0, 0, 1, 1}
	c, err := Train(x, y, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(c.Score([]float64{2.5, 5})) {
		t.Fatal("constant feature produced NaN score")
	}
}

// Property: Score is monotone in a feature with positive weight (sanity of
// the standardized linear form).
func TestScoreLinearity(t *testing.T) {
	c := &Classifier{
		W:    []float64{2, -1},
		B:    0.5,
		Mean: []float64{1, 1},
		Std:  []float64{2, 4},
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return true // avoid float cancellation at extreme magnitudes
		}
		s1 := c.Score([]float64{a, b})
		s2 := c.Score([]float64{a + 1, b})
		// Weight 2 over std 2 → slope exactly 1 in feature 0.
		return math.Abs((s2-s1)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Numerical stability at extremes.
	if math.IsNaN(sigmoid(-1000)) || math.IsNaN(sigmoid(1000)) {
		t.Fatal("sigmoid NaN at extremes")
	}
}
