package bo

import (
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/faults"
)

// peak is a smooth 2-D objective with its maximum at (0.7, 0.3).
func peak(x []float64) float64 {
	dx, dy := x[0]-0.7, x[1]-0.3
	return math.Exp(-(dx*dx + dy*dy) / 0.05)
}

func TestMaximizeFindsPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := Maximize(peak, Options{Dims: 2, Steps: 25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := tr.Best()
	if !ok {
		t.Fatal("empty trace")
	}
	if best.Value < 0.7 {
		t.Fatalf("BO best = %v at %v, want > 0.7", best.Value, best.X)
	}
}

func TestMaximizeRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	calls := 0
	f := func(x []float64) float64 { calls++; return x[0] }
	tr, err := Maximize(f, Options{Dims: 1, Steps: 9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 9 || len(tr.Evals) != 9 {
		t.Fatalf("calls = %d, evals = %d, want 9", calls, len(tr.Evals))
	}
}

func TestMaximizeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := Maximize(peak, Options{Dims: 0}, rng); err == nil {
		t.Fatal("zero dims accepted")
	}
}

func TestMaximizeSurvivesConstantObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	flat := func(x []float64) float64 { return 1 }
	tr, err := Maximize(flat, Options{Dims: 3, Steps: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Evals) != 10 {
		t.Fatalf("evals = %d", len(tr.Evals))
	}
}

func TestMaximizeBeatsRandomAtEqualBudget(t *testing.T) {
	// On average over seeds, BO at 15 evaluations should beat random
	// search at 15 evaluations on a smooth objective (the Fig 20 claim).
	boWins := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		boTr, err := Maximize(peak, Options{Dims: 2, Steps: 15}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		randTr := RandomSearch(peak, 2, 15, rand.New(rand.NewSource(seed+1000)))
		b, _ := boTr.Best()
		r, _ := randTr.Best()
		if b.Value >= r.Value {
			boWins++
		}
	}
	if boWins < 6 {
		t.Fatalf("BO won only %d/%d trials vs random", boWins, trials)
	}
}

func TestRandomSearchCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := RandomSearch(peak, 2, 200, rng)
	best, _ := tr.Best()
	if best.Value < 0.5 {
		t.Fatalf("200 random samples best = %v", best.Value)
	}
	for _, e := range tr.Evals {
		for _, v := range e.X {
			if v < 0 || v > 1 {
				t.Fatalf("point outside unit cube: %v", e.X)
			}
		}
	}
}

func TestCoordinateSearchStartsAtMidpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := CoordinateSearch(peak, 2, 5, 20, rng)
	first := tr.Evals[0]
	if first.X[0] != 0.5 || first.X[1] != 0.5 {
		t.Fatalf("first eval at %v, want midpoint", first.X)
	}
}

func TestCoordinateSearchImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := CoordinateSearch(peak, 2, 7, 30, rng)
	best, _ := tr.Best()
	if best.Value <= peak([]float64{0.5, 0.5}) {
		t.Fatalf("coordinate search never improved on the midpoint")
	}
}

func TestCoordinateSearchBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := CoordinateSearch(peak, 5, 10, 12, rng)
	if len(tr.Evals) > 12 {
		t.Fatalf("evals = %d over budget 12", len(tr.Evals))
	}
}

func TestTraceBestAfter(t *testing.T) {
	tr := &Trace{Evals: []Result{
		{X: []float64{0}, Value: 1},
		{X: []float64{0}, Value: 3},
		{X: []float64{0}, Value: 2},
	}}
	if b, _ := tr.BestAfter(1); b.Value != 1 {
		t.Fatalf("best@1 = %v", b.Value)
	}
	if b, _ := tr.BestAfter(2); b.Value != 3 {
		t.Fatalf("best@2 = %v", b.Value)
	}
	if b, _ := tr.BestAfter(100); b.Value != 3 {
		t.Fatalf("best@100 = %v", b.Value)
	}
	if _, ok := (&Trace{}).BestAfter(5); ok {
		t.Fatal("empty trace returned a best")
	}
}

func TestStandardize(t *testing.T) {
	out := standardize([]float64{1, 2, 3})
	mean := (out[0] + out[1] + out[2]) / 3
	if math.Abs(mean) > 1e-12 {
		t.Fatalf("standardized mean = %v", mean)
	}
	con := standardize([]float64{5, 5})
	if con[0] != 0 || con[1] != 0 {
		t.Fatalf("constant standardize = %v", con)
	}
}

func TestMaximizeRetriesInjectedQueryFailures(t *testing.T) {
	in := faults.New(11)
	in.Enable(faults.BOQueryFail, 3)
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return -(x[0] - 0.5) * (x[0] - 0.5)
	}
	tr, err := Maximize(f, Options{Dims: 1, Steps: 12, Faults: in}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Evals) != 12 {
		t.Fatalf("got %d evals, want 12", len(tr.Evals))
	}
	if in.Fired(faults.BOQueryFail) == 0 {
		t.Fatal("injector never fired")
	}
	if tr.Failures == 0 {
		t.Fatal("failures not recorded in trace")
	}
	// Injected failures skip the objective, so f ran fewer times than
	// (attempts); every recorded eval still has a value.
	if calls == 0 {
		t.Fatal("objective never ran")
	}
	if best, ok := tr.Best(); !ok || math.IsInf(best.Value, -1) {
		t.Fatalf("best = %+v, %v", best, ok)
	}
}

func TestMaximizeExhaustedRetriesPinMinusInf(t *testing.T) {
	// NaN from the objective itself is a query failure too; a point that
	// stays NaN through every retry is recorded at -Inf and the search
	// still completes its budget.
	bad := 0
	f := func(x []float64) float64 {
		if x[0] < 0.5 {
			bad++
			return math.NaN()
		}
		return x[0]
	}
	tr, err := Maximize(f, Options{Dims: 1, Steps: 10}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Evals) != 10 {
		t.Fatalf("got %d evals, want 10", len(tr.Evals))
	}
	if bad == 0 {
		t.Skip("seed never sampled the failing half")
	}
	pinned := 0
	for _, r := range tr.Evals {
		if math.IsNaN(r.Value) {
			t.Fatal("NaN leaked into the trace")
		}
		if math.IsInf(r.Value, -1) {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("exhausted retries did not pin the point at -Inf")
	}
	// Every failing point was queried once and retried queryRetries times.
	if bad != pinned*(queryRetries+1) || tr.Failures != bad {
		t.Fatalf("%d failing queries and Failures = %d for %d pinned points, want %d each",
			bad, tr.Failures, pinned, pinned*(queryRetries+1))
	}
	if best, ok := tr.Best(); !ok || math.IsInf(best.Value, -1) || best.X[0] < 0.5 {
		t.Fatalf("best = %+v, %v — failed points must never win", best, ok)
	}
}

func TestMaximizeFaultFreeUnchangedByRetryConfig(t *testing.T) {
	// With no faults and a finite objective, the retry machinery must be
	// invisible: each point is queried once, and the trace is the same
	// with an injector attached whose bo-query site never fires.
	calls := 0
	f := func(x []float64) float64 { calls++; return math.Sin(7*x[0]) + x[1] }
	run := func(in *faults.Injector) *Trace {
		tr, err := Maximize(f, Options{Dims: 2, Steps: 14, Faults: in}, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	plain := run(nil)
	if calls != 14 || plain.Failures != 0 {
		t.Fatalf("fault-free search made %d queries with %d failures, want 14 and 0", calls, plain.Failures)
	}
	in := faults.New(3)
	in.Enable(faults.GradPoison, 1)
	if !plain.Equal(run(in)) {
		t.Fatal("an unarmed bo-query site changed a fault-free search")
	}
}

func TestTraceCloneEqualCarryFailures(t *testing.T) {
	tr := &Trace{Evals: []Result{{X: []float64{0.5}, Value: 1}}, Failures: 3}
	c := tr.Clone()
	if c.Failures != 3 {
		t.Fatalf("Clone dropped Failures: %d", c.Failures)
	}
	if !tr.Equal(c) {
		t.Fatal("clone not Equal")
	}
	c.Failures = 0
	if tr.Equal(c) {
		t.Fatal("Equal ignores Failures")
	}
}
