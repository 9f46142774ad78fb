package rl

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Evaluation workers share one agent (the harness's paired evaluation runs
// environments in parallel over h.Agent) and so do serving callers. The
// inference methods borrow per-call scratch from the networks, so every
// answer under concurrency must be bit-identical to a serial call.

// inferenceAnswers is one observation's outputs from every inference method.
type inferenceAnswers struct {
	greedy int
	value  float64
	mean   []float64
	gValue float64
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSharedAgentConcurrentInference(t *testing.T) {
	const (
		obsSize = 12
		actions = 5
		nObs    = 48
		workers = 8
		rounds  = 20
	)
	rng := rand.New(rand.NewSource(31))
	d, err := NewDiscreteAgent(DefaultDiscreteConfig(obsSize, actions), rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussianAgent(DefaultGaussianConfig(obsSize, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([][]float64, nObs)
	for i := range obs {
		obs[i] = make([]float64, obsSize)
		for j := range obs[i] {
			obs[i][j] = rng.NormFloat64()
		}
	}
	answer := func(x []float64) inferenceAnswers {
		return inferenceAnswers{
			greedy: d.Greedy(x),
			value:  d.Value(x),
			mean:   g.MeanInto(make([]float64, 2), x),
			gValue: g.Value(x),
		}
	}
	want := make([]inferenceAnswers, nObs)
	for i, x := range obs {
		want[i] = answer(x)
		if !sameBits(want[i].mean, g.Mean(x)) {
			t.Fatalf("obs %d: MeanInto and Mean disagree", i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range obs {
					i := (k*(w+1) + r) % nObs // a different visiting order per worker
					got, exp := answer(obs[i]), want[i]
					if got.greedy != exp.greedy ||
						!sameBits([]float64{got.value, got.gValue}, []float64{exp.value, exp.gValue}) ||
						!sameBits(got.mean, exp.mean) {
						t.Errorf("worker %d obs %d: concurrent answer %+v, serial %+v", w, i, got, exp)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInferenceAllocs pins the evaluation and serving entry points: Greedy,
// Value and MeanInto make no heap allocation once warm.
func TestInferenceAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d, err := NewDiscreteAgent(DefaultDiscreteConfig(27, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussianAgent(DefaultGaussianConfig(31, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	dObs, gObs, act := make([]float64, 27), make([]float64, 31), make([]float64, 1)
	for name, fn := range map[string]func(){
		"Greedy":   func() { d.Greedy(dObs) },
		"Value":    func() { d.Value(dObs) },
		"MeanInto": func() { g.MeanInto(act, gObs) },
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
}
