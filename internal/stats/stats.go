// Package stats provides the small statistical toolkit used throughout the
// Genet reproduction: summary statistics, percentiles, Pearson correlation,
// and bootstrap confidence intervals.
//
// All functions are pure and operate on float64 slices. Functions that need
// sorted input copy the input first; callers never see their arguments
// mutated.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It panics on an empty slice, when p
// is outside [0, 100], or when xs contains NaN — NaNs break the sort's
// total order, so the closest-rank lookup would silently return an
// arbitrary element instead of a percentile.
func Percentile(xs []float64, p float64) float64 {
	v, err := TryPercentile(xs, p)
	if err != nil {
		panic("stats: " + err.Error())
	}
	return v
}

// TryPercentile is the non-panicking form of Percentile: it returns an
// error — instead of crashing the caller — on an empty slice, a p
// outside [0, 100], or NaN input. Watchdog code paths that summarize
// possibly-poisoned series (a NaN loss is exactly what a training guard
// exists to catch) should use this form.
func TryPercentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v out of range [0,100]", p)
	}
	for i, x := range xs {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("Percentile input contains NaN at index %d", i)
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It panics when the slices differ in length, and returns 0 when either
// series has zero variance or fewer than two points.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d != %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Summary bundles the descriptive statistics reported throughout the
// experiment harness.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	Max    float64
}

// TrySummarize computes a Summary of xs. NaN input yields an error, so
// monitoring code can report a poisoned series without dying on it. An
// empty slice is not an error; it yields the zero Summary.
func TrySummarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, nil
	}
	for i, x := range xs {
		if math.IsNaN(x) {
			return Summary{}, fmt.Errorf("Summarize input contains NaN at index %d", i)
		}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Std(xs),
		Min:    Min(xs),
		P25:    Percentile(xs, 25),
		Median: Median(xs),
		P75:    Percentile(xs, 75),
		P90:    Percentile(xs, 90),
		Max:    Max(xs),
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p90=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P90, s.Max)
}

// HarmonicMean returns the harmonic mean of xs, ignoring non-positive
// entries; it returns 0 when no positive entries exist. Harmonic-mean
// bandwidth prediction is the estimator used by MPC-class ABR algorithms.
func HarmonicMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += 1 / x
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}
