package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestBootstrapMeanTable(t *testing.T) {
	// Samples from known distributions with fixed seeds: the interval must
	// bracket the true mean (generously — these are small samples) and be
	// ordered Lo <= Point <= Hi.
	gauss := func(n int, mean, std float64, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mean + std*rng.NormFloat64()
		}
		return xs
	}
	uniform := func(n int, lo, hi float64, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lo + (hi-lo)*rng.Float64()
		}
		return xs
	}
	cases := []struct {
		name     string
		xs       []float64
		trueMean float64
		slack    float64 // allowed distance between interval and true mean
	}{
		{"gauss-100", gauss(100, 5, 2, 1), 5, 1},
		{"gauss-shifted", gauss(200, -3, 0.5, 2), -3, 0.25},
		{"uniform-50", uniform(50, 0, 10, 3), 5, 1.5},
		{"tiny-exact", []float64{1, 2, 3, 4, 5}, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ci := BootstrapMean(tc.xs, 2000, 0.95, 42)
			if ci.N != len(tc.xs) {
				t.Fatalf("N = %d, want %d", ci.N, len(tc.xs))
			}
			if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
				t.Fatalf("interval not ordered: %v", ci)
			}
			if got := Mean(tc.xs); ci.Point != got {
				t.Fatalf("Point = %v, want sample mean %v", ci.Point, got)
			}
			if ci.Lo > tc.trueMean+tc.slack || ci.Hi < tc.trueMean-tc.slack {
				t.Fatalf("interval %v too far from true mean %v", ci, tc.trueMean)
			}
			if ci.HalfWidth() <= 0 {
				t.Fatalf("non-degenerate sample must have positive half-width: %v", ci)
			}
		})
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a := BootstrapMean(xs, 500, 0.9, 7)
	b := BootstrapMean(xs, 500, 0.9, 7)
	if a != b {
		t.Fatalf("same seed must reproduce the interval: %v vs %v", a, b)
	}
	c := BootstrapMean(xs, 500, 0.9, 8)
	if a == c {
		t.Fatalf("different seeds should perturb the interval: %v", a)
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	// Empty sample: zero interval at the requested level.
	ci := BootstrapMean(nil, 100, 0.95, 1)
	if ci.N != 0 || ci.Point != 0 || ci.Lo != 0 || ci.Hi != 0 || ci.Level != 0.95 {
		t.Fatalf("empty sample: %v", ci)
	}
	// n=1: zero-width interval on the observation.
	ci = BootstrapMean([]float64{7.5}, 100, 0.95, 1)
	if ci.Point != 7.5 || ci.Lo != 7.5 || ci.Hi != 7.5 {
		t.Fatalf("single observation: %v", ci)
	}
	if ci.HalfWidth() != 0 {
		t.Fatalf("single observation half-width: %v", ci.HalfWidth())
	}
	// All-equal samples: every resample is identical, interval collapses.
	ci = BootstrapMean([]float64{2, 2, 2, 2}, 100, 0.99, 1)
	if ci.Point != 2 || ci.Lo != 2 || ci.Hi != 2 {
		t.Fatalf("all-equal sample: %v", ci)
	}
	if !ci.Contains(2) || ci.Contains(2.1) {
		t.Fatalf("Contains on collapsed interval: %v", ci)
	}
}

func TestBootstrapCustomStat(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	ci := Bootstrap(xs, func(s []float64) float64 { return Percentile(s, 50) }, 1000, 0.95, 3)
	if ci.Point != 3 {
		t.Fatalf("median point = %v, want 3", ci.Point)
	}
	if !(ci.Lo <= ci.Point && ci.Point <= ci.Hi) {
		t.Fatalf("interval not ordered: %v", ci)
	}
}

func TestBootstrapDefaultResamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	// resamples <= 0 falls back to DefaultResamples rather than producing
	// an empty bootstrap distribution.
	a := BootstrapMean(xs, 0, 0.95, 9)
	b := BootstrapMean(xs, DefaultResamples, 0.95, 9)
	if a != b {
		t.Fatalf("default resamples mismatch: %v vs %v", a, b)
	}
}

func TestBootstrapPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	// NaN input panics, matching the Percentile/Summarize contract.
	mustPanic("nan", func() { BootstrapMean([]float64{1, math.NaN(), 3}, 100, 0.95, 1) })
	// Confidence level outside (0,1) is a programming error.
	mustPanic("level-0", func() { BootstrapMean([]float64{1, 2}, 100, 0, 1) })
	mustPanic("level-1", func() { BootstrapMean([]float64{1, 2}, 100, 1, 1) })
	mustPanic("level-neg", func() { BootstrapMean([]float64{1, 2}, 100, -0.5, 1) })
}

// TestPercentileNaNContract pins the existing panic behavior the bootstrap
// layer builds on: Percentile and TrySummarize refuse NaN input loudly.
func TestPercentileNaNContract(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Percentile must panic on NaN input")
		}
	}()
	Percentile([]float64{1, math.NaN()}, 50)
}

func TestSummarizeNaNContract(t *testing.T) {
	for _, xs := range [][]float64{{1, math.NaN()}, {math.NaN()}} {
		if _, err := TrySummarize(xs); err == nil {
			t.Fatalf("TrySummarize(%v) must error", xs)
		}
	}
}
