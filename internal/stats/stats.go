// Package stats provides the scalar statistics the distance-correction
// machinery needs: the Gaussian quantile function (the multiplier m of
// DDCres is a probit value), summary statistics, empirical quantiles, and
// histograms used to reproduce the error-distribution figures (Figs. 1–2).
package stats

import (
	"errors"
	"math"
	"sort"
)

// NormalQuantile returns the probit function: the x such that
// P(Z <= x) = p for Z ~ N(0, 1) and p in (0, 1). This is the multiplier m
// used by the DDCres error bound: a two-sided coverage of q corresponds to
// m = NormalQuantile((1+q)/2), e.g. q = 0.997 -> m ≈ 3; the pruning test
// only errs on one side (a point wrongly pruned when dis <= tau), so a
// one-sided coverage of q corresponds to m = NormalQuantile(q).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return -math.Sqrt2 * math.Erfcinv(2*p)
}

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
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile level outside [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Quantiles returns the empirical quantiles of xs at each level in qs,
// sorting the sample only once.
func Quantiles(xs []float64, qs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: quantiles of empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, errors.New("stats: quantile level outside [0,1]")
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

// Histogram is a fixed-width binning of a sample, used to render the error
// distributions of Figs. 1 and 2 as text.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the first / last bin so that mass is
// never silently dropped.
func NewHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		nbins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}
