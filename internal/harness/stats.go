package harness

import (
	"errors"
	"math"
	"sort"
)

// Summary holds moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance (divide by N)
	Std      float64
	Min      float64
	Max      float64
}

// Summarize computes the Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Variance = ss / float64(s.N)
	s.Std = math.Sqrt(s.Variance)
	return s
}

// Quantile returns the empirical q-quantile of xs (linear interpolation
// between order statistics, the common "type 7" estimator). xs need not be
// sorted. It returns an error for empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	qs, err := Quantiles(xs, []float64{q})
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Quantiles returns the empirical quantiles of xs at each level in qs,
// sorting the sample only once.
func Quantiles(xs []float64, qs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, errors.New("harness: quantiles of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, errors.New("harness: quantile level outside [0,1]")
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
