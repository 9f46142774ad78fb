package bo

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// Objective is a blackbox function over the unit hypercube to maximize. In
// Genet it is the (expensive, noisy) gap-to-baseline of a configuration.
type Objective func(x []float64) float64

// Result is one evaluated point.
type Result struct {
	X     []float64
	Value float64
}

// Trace records a search's evaluations in order; BestAfter answers "how good
// was the best point after n evaluations" for Fig 20-style plots.
type Trace struct {
	Evals []Result
	// Failures counts objective queries that failed (injected fault or a
	// NaN return) including the ones a retry later recovered. A point whose
	// retries were exhausted is recorded with Value -Inf so the search
	// continues but can never select it as the best.
	Failures int
}

// Best returns the best point found, or false when no evaluations ran.
func (t *Trace) Best() (Result, bool) {
	return t.BestAfter(len(t.Evals))
}

// BestAfter returns the best among the first n evaluations.
func (t *Trace) BestAfter(n int) (Result, bool) {
	if n > len(t.Evals) {
		n = len(t.Evals)
	}
	if n == 0 {
		return Result{}, false
	}
	best := t.Evals[0]
	for _, r := range t.Evals[1:n] {
		if r.Value > best.Value {
			best = r
		}
	}
	return best, true
}

// Options configure a BO run.
type Options struct {
	// Dims is the search dimensionality (required).
	Dims int
	// Steps is the total evaluation budget (Genet default: 15).
	Steps int
	// Metrics optionally receives the query stream: one "bo/query" event
	// per objective evaluation (with the winning acquisition value and GP
	// posterior for acquisition-chosen points) and one "bo/gp" event per
	// search with the GP hyperparameters. Telemetry never draws from rng,
	// so attaching it cannot change which points are evaluated.
	Metrics *metrics.Registry
	// Faults optionally injects query failures at the bo-query site
	// (chaos testing). nil means no injection.
	Faults *faults.Injector
	// Recorder optionally records one "bo/query" span per objective
	// evaluation in the flight recorder (the span covers the query
	// including its retries). Like Metrics, recording is observation-only
	// and never draws from rng.
	Recorder *obs.Recorder
}

const (
	// maxInitRandom caps how many uniformly random points seed the GP
	// before acquisition starts: min(maxInitRandom, Steps/3+1).
	maxInitRandom = 5
	// candidates is how many random candidates the acquisition maximizer
	// scores per step.
	candidates = 512
	// queryRetries bounds how many times a failed objective query
	// (injected fault or NaN result) is retried before the point is
	// recorded with value -Inf, i.e. up to 3 attempts. Retries re-evaluate
	// the same point immediately and consume no randomness, so a
	// fault-free run draws the same rng sequence as one with no retry
	// machinery at all.
	queryRetries = 2
)

func (o *Options) defaults() error {
	if o.Dims <= 0 {
		return fmt.Errorf("bo: non-positive dims %d", o.Dims)
	}
	if o.Steps <= 0 {
		o.Steps = 15
	}
	return nil
}

// Maximize runs Bayesian optimization of f over [0,1]^Dims and returns the
// evaluation trace. Genet restarts this search from scratch for every new
// RL model snapshot (§4.2: the rewarding environments change once the model
// changes), which is why the searcher carries no cross-call state.
func Maximize(f Objective, opts Options, rng *rand.Rand) (*Trace, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	m := opts.Metrics
	tr := &Trace{}
	// eval runs the objective and streams one "bo/query" event; random
	// probes (seeding and fit-failure fallbacks) carry random=1 and no
	// posterior, acquisition-chosen points carry the winning EI and the GP
	// posterior at the chosen point.
	// query runs the objective with bounded retry. An injected bo-query
	// fault fails the attempt before f runs (the query never reached the
	// evaluator); a NaN return fails it after (the evaluator misbehaved).
	// Retries are immediate and rng-free, so the fault schedule alone
	// decides which runs diverge. Exhausted retries pin the point at -Inf.
	query := func(x []float64) float64 {
		for attempt := 0; ; attempt++ {
			if opts.Faults.Fire(faults.BOQueryFail) {
				tr.Failures++
			} else if v := f(x); !math.IsNaN(v) {
				return v
			} else {
				tr.Failures++
			}
			if m.Enabled() {
				m.Counter("bo/query_failures").Inc()
			}
			if attempt >= queryRetries {
				return math.Inf(-1)
			}
		}
	}
	eval := func(x []float64, random bool, ei, mu, va float64) {
		sp := opts.Recorder.Start("bo/query")
		v := query(x)
		if opts.Recorder.Enabled() {
			rnd := 0.0
			if random {
				rnd = 1
			}
			sp.EndArgs(
				obs.Arg{K: "step", V: float64(len(tr.Evals))},
				obs.Arg{K: "value", V: v},
				obs.Arg{K: "random", V: rnd})
		}
		tr.Evals = append(tr.Evals, Result{X: x, Value: v})
		if m.Enabled() {
			m.Counter("bo/evals").Inc()
			if random {
				m.Emit("bo/query",
					metrics.F{K: "step", V: float64(len(tr.Evals) - 1)},
					metrics.F{K: "value", V: v},
					metrics.F{K: "random", V: 1})
			} else {
				m.Emit("bo/query",
					metrics.F{K: "step", V: float64(len(tr.Evals) - 1)},
					metrics.F{K: "value", V: v},
					metrics.F{K: "ei", V: ei},
					metrics.F{K: "mu", V: mu},
					metrics.F{K: "var", V: va})
			}
		}
	}
	initRandom := min(maxInitRandom, opts.Steps/3+1)
	for i := 0; i < initRandom; i++ {
		eval(randPoint(opts.Dims, rng), true, 0, 0, 0)
	}
	gp := NewGP()
	if m.Enabled() {
		m.Emit("bo/gp",
			metrics.F{K: "length_scale", V: gp.LengthScale},
			metrics.F{K: "signal_var", V: gp.SignalVar},
			metrics.F{K: "noise_var", V: gp.NoiseVar})
	}
	for len(tr.Evals) < opts.Steps {
		// Failed queries sit at -Inf; feeding them to standardize/Fit would
		// poison the whole posterior, so the GP sees only the finite evals.
		xs := make([][]float64, 0, len(tr.Evals))
		ys := make([]float64, 0, len(tr.Evals))
		for _, r := range tr.Evals {
			if math.IsInf(r.Value, 0) || math.IsNaN(r.Value) {
				continue
			}
			xs = append(xs, r.X)
			ys = append(ys, r.Value)
		}
		if len(ys) == 0 {
			eval(randPoint(opts.Dims, rng), true, 0, 0, 0)
			continue
		}
		ys = standardize(ys)
		if err := gp.Fit(xs, ys); err != nil {
			// Degenerate geometry (e.g. duplicate points): fall back to a
			// random probe rather than aborting the whole search.
			eval(randPoint(opts.Dims, rng), true, 0, 0, 0)
			continue
		}
		incumbent, _ := bestOf(ys)
		var bestX []float64
		bestEI := -1.0
		var bestMu, bestVar float64
		for c := 0; c < candidates; c++ {
			x := randPoint(opts.Dims, rng)
			mu, va := gp.Predict(x)
			ei := ExpectedImprovement(mu, va, incumbent)
			if ei > bestEI {
				bestEI = ei
				bestX = x
				bestMu, bestVar = mu, va
			}
		}
		eval(bestX, false, bestEI, bestMu, bestVar)
	}
	return tr, nil
}

// RandomSearch evaluates steps uniformly random points: the expensive
// brute-force comparator in Fig 20.
func RandomSearch(f Objective, dims, steps int, rng *rand.Rand) *Trace {
	tr := &Trace{}
	for i := 0; i < steps; i++ {
		x := randPoint(dims, rng)
		tr.Evals = append(tr.Evals, Result{X: x, Value: f(x)})
	}
	return tr
}

// CoordinateSearch is the paper's "grid search" reference (Fig 20): start
// with every coordinate at its midpoint, then sweep one coordinate at a
// time over a uniform grid, committing the best value found before moving
// to the next coordinate. It stops after the evaluation budget.
func CoordinateSearch(f Objective, dims, gridPoints, budget int, rng *rand.Rand) *Trace {
	if gridPoints < 2 {
		gridPoints = 5
	}
	tr := &Trace{}
	cur := make([]float64, dims)
	for i := range cur {
		cur[i] = 0.5
	}
	evalAt := func(x []float64) float64 {
		cp := append([]float64(nil), x...)
		v := f(cp)
		tr.Evals = append(tr.Evals, Result{X: cp, Value: v})
		return v
	}
	bestVal := evalAt(cur)
	for d := 0; d < dims && len(tr.Evals) < budget; d++ {
		bestCoord := cur[d]
		for gi := 0; gi < gridPoints && len(tr.Evals) < budget; gi++ {
			cur[d] = float64(gi) / float64(gridPoints-1)
			if v := evalAt(cur); v > bestVal {
				bestVal = v
				bestCoord = cur[d]
			}
		}
		cur[d] = bestCoord
	}
	return tr
}

func randPoint(dims int, rng *rand.Rand) []float64 {
	x := make([]float64, dims)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func bestOf(ys []float64) (best float64, idx int) {
	best, idx = ys[0], 0
	for i, v := range ys[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// standardize returns ys scaled to zero mean, unit variance (constant
// series are centered only). The GP assumes roughly unit-scale outputs.
func standardize(ys []float64) []float64 {
	n := float64(len(ys))
	mean := 0.0
	for _, v := range ys {
		mean += v
	}
	mean /= n
	va := 0.0
	for _, v := range ys {
		d := v - mean
		va += d * d
	}
	va /= n
	out := make([]float64, len(ys))
	if va < 1e-12 {
		for i, v := range ys {
			out[i] = v - mean
		}
		return out
	}
	sd := 1 / math.Sqrt(va)
	for i, v := range ys {
		out[i] = (v - mean) * sd
	}
	return out
}
