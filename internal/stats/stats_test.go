package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// normalCDF is P(Z <= x) for Z ~ N(0, 1): the reference NormalQuantile is
// inverted against.
func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := normalCDF(c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 1)
		if p < 1e-6 || p > 1-1e-6 {
			return true
		}
		x := NormalQuantile(p)
		return math.Abs(normalCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
}

func TestMultiplierForCoverage(t *testing.T) {
	// The DDCres multiplier for a two-sided coverage q is
	// NormalQuantile((1+q)/2). Empirical rule: 99.7% ~ 3 sigma.
	if m := NormalQuantile((1 + 0.997) / 2); math.Abs(m-2.9677) > 1e-3 {
		t.Errorf("multiplier for 0.997 coverage = %v, want ~2.97", m)
	}
	if m := NormalQuantile((1 + 0.95) / 2); math.Abs(m-1.95996) > 1e-4 {
		t.Errorf("multiplier for 0.95 coverage = %v, want 1.96", m)
	}
}

func TestOneSidedMultiplier(t *testing.T) {
	// One-sided coverage q: the multiplier is NormalQuantile(q).
	if m := NormalQuantile(0.995); math.Abs(m-2.5758) > 1e-3 {
		t.Errorf("one-sided multiplier for 0.995 = %v, want ~2.576", m)
	}
	if m := NormalQuantile(0.5); math.Abs(m) > 1e-12 {
		t.Errorf("one-sided multiplier for 0.5 = %v, want 0", m)
	}
}

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
	want := NormalQuantile(0.995)
	if math.Abs(emp-want) > 0.05 {
		t.Fatalf("empirical 0.995 quantile %v vs probit %v", emp, want)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{-2, -0.1, 0, 0.1, 2, 99}, -1, 1, 4)
	if h.Total != 6 {
		t.Fatalf("Total = %d", h.Total)
	}
	// -2 clamps to bin 0, 99 and 2 clamp to bin 3.
	if h.Counts[0] != 1 || h.Counts[3] != 2 {
		t.Fatalf("clamping wrong: %v", h.Counts)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Total {
		t.Fatal("histogram mass not conserved")
	}
}

func TestHistogramPeakiness(t *testing.T) {
	// Concentrated sample has higher peakiness than a spread one.
	r := rand.New(rand.NewSource(3))
	tight := make([]float64, 10000)
	loose := make([]float64, 10000)
	for i := range tight {
		tight[i] = 0.05 * r.NormFloat64()
		loose[i] = 1.0 * r.NormFloat64()
	}
	// Mass in the bins whose centre lies in the central fifth of the range:
	// the Fig. 1 contrast (PCA vs random projection error) as one number.
	central := func(h *Histogram) float64 {
		inside := 0
		for i, c := range h.Counts {
			if math.Abs(h.BinCenter(i)) <= 0.1*(h.Hi-h.Lo) {
				inside += c
			}
		}
		return float64(inside) / float64(h.Total)
	}
	ht := NewHistogram(tight, -3, 3, 60)
	hl := NewHistogram(loose, -3, 3, 60)
	if central(ht) <= central(hl) {
		t.Fatalf("tight %v should be peakier than loose %v", central(ht), central(hl))
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{1, 1, 1}, 1, 1, 0)
	if h.Total != 3 || len(h.Counts) != 1 {
		t.Fatalf("degenerate histogram: %+v", h)
	}
}
