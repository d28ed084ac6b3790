package harness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize basic fields wrong: %+v", s)
	}
	if math.Abs(s.Variance-1.25) > 1e-12 {
		t.Fatalf("Variance = %v, want 1.25", s.Variance)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestQuantileBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	q, err := Quantile(xs, 0.5)
	if err != nil || math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median = %v err=%v, want 2.5", q, err)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 4 {
		t.Fatalf("extremes: %v %v", q0, q1)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("expected error on empty sample")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("expected error on q out of range")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(200))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		qs, err := Quantiles(xs, []float64{0.1, 0.5, 0.9, 0.99})
		if err != nil {
			return false
		}
		for i := 0; i < len(qs)-1; i++ {
			if qs[i] > qs[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianQuantileAgreesEmpirically(t *testing.T) {
	// A large N(0,1) sample's 99.5% quantile should be near probit(0.995).
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	emp, err := Quantile(xs, 0.995)
	if err != nil {
		t.Fatal(err)
	}
	const probit995 = 2.5758
	if math.Abs(emp-probit995) > 0.05 {
		t.Fatalf("empirical 0.995 quantile %v vs probit %v", emp, probit995)
	}
}
