package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, -0.5, 2}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestVarianceConstant(t *testing.T) {
	if got := Variance([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("Variance of constants = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Population variance of {1,2,3,4} = 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEqual(got, 1.25, 1e-12) {
		t.Fatalf("Variance = %v, want 1.25", got)
	}
}

func TestVarianceSingleton(t *testing.T) {
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance singleton = %v, want 0", got)
	}
}

func TestStd(t *testing.T) {
	if got := Std([]float64{1, 2, 3, 4}); !almostEqual(got, math.Sqrt(1.25), 1e-12) {
		t.Fatalf("Std = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Min(xs); got != -1 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Fatalf("Max = %v", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(empty) did not panic")
		}
	}()
	Min(nil)
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max(empty) did not panic")
		}
	}()
	Max(nil)
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("P0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("P100 = %v, want 40", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if got := Percentile(xs, 25); got != 2.5 {
		t.Fatalf("P25 = %v, want 2.5", got)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	xs := []float64{30, 10, 20}
	if got := Median(xs); got != 20 {
		t.Fatalf("Median = %v, want 20", got)
	}
	// The input must not be mutated.
	if xs[0] != 30 || xs[1] != 10 || xs[2] != 20 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestPercentileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileNaNPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Percentile with NaN input did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "NaN") {
			t.Fatalf("panic %v does not name NaN as the cause", r)
		}
	}()
	// NaN breaks sort.Float64s' total order, so before the check this
	// returned an arbitrary element as "the median".
	Percentile([]float64{3, math.NaN(), 1, 2}, 50)
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
}

func TestPearsonAntiCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{3, 2, 1}
	if got := Pearson(xs, ys); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pearson length mismatch did not panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonBounds(t *testing.T) {
	// Property: |Pearson| <= 1 for random data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := TrySummarize([]float64{1, 2, 3, 4, 5})
	if err != nil || s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Summary.String empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s, err := TrySummarize(nil); err != nil || s.N != 0 {
		t.Fatalf("TrySummarize(nil) = (%+v, %v)", s, err)
	}
}

func TestBootstrapCIContainsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	ci := BootstrapMean(xs, 300, 0.95, 1)
	m := Mean(xs)
	if ci.Point != m || !ci.Contains(m) {
		t.Fatalf("CI %v does not contain mean %v", ci, m)
	}
	if ci.HalfWidth() <= 0 {
		t.Fatalf("degenerate CI %v", ci)
	}
}

func TestBootstrapCISingleton(t *testing.T) {
	if ci := BootstrapMean([]float64{7}, 10, 0.95, 1); ci.Lo != 7 || ci.Hi != 7 {
		t.Fatalf("singleton CI = %v", ci)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("HarmonicMean = %v", got)
	}
	// HM of {1,2} = 4/3.
	if got := HarmonicMean([]float64{1, 2}); !almostEqual(got, 4.0/3, 1e-12) {
		t.Fatalf("HarmonicMean = %v", got)
	}
	// Non-positive entries are ignored.
	if got := HarmonicMean([]float64{0, -1, 2}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("HarmonicMean with zeros = %v", got)
	}
	if got := HarmonicMean([]float64{0}); got != 0 {
		t.Fatalf("HarmonicMean all-zero = %v", got)
	}
}

func TestHarmonicLEArithmetic(t *testing.T) {
	// Property: harmonic mean <= arithmetic mean for positive data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(30))
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinMinMax(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(30))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		p := float64(pRaw) / 255 * 100
		v := Percentile(xs, p)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTryPercentile(t *testing.T) {
	xs := []float64{3, 1, 2}
	v, err := TryPercentile(xs, 50)
	if err != nil || v != 2 {
		t.Fatalf("TryPercentile = (%v, %v), want (2, nil)", v, err)
	}
	if _, err := TryPercentile(nil, 50); err == nil {
		t.Fatal("TryPercentile(nil) returned no error")
	}
	if _, err := TryPercentile(xs, 101); err == nil {
		t.Fatal("TryPercentile out-of-range p returned no error")
	}
	if _, err := TryPercentile([]float64{1, math.NaN()}, 50); err == nil {
		t.Fatal("TryPercentile NaN input returned no error")
	}
}

func TestTryPercentileMatchesPercentile(t *testing.T) {
	xs := []float64{9, 4, 7, 1, 5, 2}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 100} {
		v, err := TryPercentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := Percentile(xs, p); got != v {
			t.Fatalf("p=%v: Percentile=%v TryPercentile=%v", p, got, v)
		}
	}
}

func TestTrySummarize(t *testing.T) {
	s, err := TrySummarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("TrySummarize = %+v", s)
	}
	if s2, err := TrySummarize(nil); err != nil || s2 != (Summary{}) {
		t.Fatalf("TrySummarize(nil) = (%+v, %v), want zero Summary and nil error", s2, err)
	}
	if _, err := TrySummarize([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("TrySummarize NaN input returned no error")
	}
}
