package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// CI is a two-sided bootstrap confidence interval around a point estimate.
// Point is the statistic computed on the original sample; [Lo, Hi] covers the
// central Level mass of the bootstrap distribution. Degenerate samples
// (n < 2, or all-equal values) collapse the interval onto the point, which is
// the honest answer: the sample carries no spread information.
type CI struct {
	N     int     `json:"n"`
	Point float64 `json:"point"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

// HalfWidth returns half the interval width, the margin fleet verdicts use
// as their noise allowance.
func (c CI) HalfWidth() float64 { return (c.Hi - c.Lo) / 2 }

// Contains reports whether x falls inside [Lo, Hi].
func (c CI) Contains(x float64) bool { return x >= c.Lo && x <= c.Hi }

// String renders "point [lo, hi]" with fixed precision.
func (c CI) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f]", c.Point, c.Lo, c.Hi)
}

// DefaultResamples is the bootstrap resample count used when callers pass
// resamples <= 0. 1000 keeps percentile granularity at 0.1% while staying
// microseconds-cheap for the seed-count sample sizes fleet aggregates.
const DefaultResamples = 1000

// Bootstrap returns a two-sided percentile-bootstrap confidence interval for
// stat over xs: resamples resamples of size len(xs) are drawn with
// replacement from a rand stream seeded with seed, stat is computed on each,
// and [Lo, Hi] are the (1-level)/2 and (1+level)/2 percentiles of those
// statistics. The same (xs, stat, resamples, level, seed) always yields the
// same interval, so fleet summaries are byte-reproducible.
//
// Contract edges, shared with Percentile/TrySummarize:
//   - level outside (0, 1) panics — it is a programming error, not data;
//   - NaN anywhere in xs panics (via Percentile): a poisoned sample must not
//     silently produce a plausible-looking interval;
//   - an empty sample returns the zero interval at the requested level;
//   - a single observation returns a zero-width interval on it.
func Bootstrap(xs []float64, stat func([]float64) float64, resamples int, level float64, seed int64) CI {
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("stats: bootstrap confidence level %v outside (0,1)", level))
	}
	for i, x := range xs {
		if math.IsNaN(x) {
			panic(fmt.Sprintf("stats: Bootstrap input contains NaN at index %d", i))
		}
	}
	if resamples <= 0 {
		resamples = DefaultResamples
	}
	ci := CI{N: len(xs), Level: level}
	if len(xs) == 0 {
		return ci
	}
	ci.Point = stat(xs)
	if len(xs) == 1 {
		ci.Lo, ci.Hi = ci.Point, ci.Point
		return ci
	}
	rng := rand.New(rand.NewSource(seed))
	scratch := make([]float64, len(xs))
	stats := make([]float64, resamples)
	for r := range stats {
		for i := range scratch {
			scratch[i] = xs[rng.Intn(len(xs))]
		}
		stats[r] = stat(scratch)
	}
	alpha := 1 - level
	ci.Lo = Percentile(stats, 100*alpha/2)
	ci.Hi = Percentile(stats, 100*(1-alpha/2))
	return ci
}

// BootstrapMean is Bootstrap with the mean as the statistic — the estimator
// fleet aggregates per-seed rewards and gaps with.
func BootstrapMean(xs []float64, resamples int, level float64, seed int64) CI {
	return Bootstrap(xs, Mean, resamples, level, seed)
}
