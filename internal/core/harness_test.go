package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/trace"
)

// The three real harnesses must satisfy the Harness contract: correct curve
// lengths, paired evaluations with only the requested references, and
// snapshot isolation. These tests run at tiny budgets.

func realHarnesses(t *testing.T) map[string]Harness {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	a, err := NewABRHarness(env.ABRSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	a.EnvsPerIter, a.StepsPerIter = 2, 150
	c, err := NewCCHarness(env.CCSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	c.EnvsPerIter, c.StepsPerIter = 2, 300
	l, err := NewLBHarness(env.LBSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	l.EnvsPerIter, l.StepsPerIter = 1, 80
	return map[string]Harness{"abr": a, "cc": c, "lb": l}
}

func TestHarnessTrainCurveLength(t *testing.T) {
	for name, h := range realHarnesses(t) {
		curve := h.Train(env.NewDistribution(h.Space()), 3, rand.New(rand.NewSource(2)))
		if len(curve) != 3 {
			t.Errorf("%s: curve len = %d, want 3", name, len(curve))
		}
	}
}

// TestTrainNumbersIterationsAcrossCalls runs a warm-up and two rounds,
// three Train calls, and checks that their train/iter events and spans
// number the iterations 0, 1, 2, ... instead of restarting each call.
func TestTrainNumbersIterationsAcrossCalls(t *testing.T) {
	for name, h := range realHarnesses(t) {
		var buf bytes.Buffer
		sink := metrics.NewJSONLSink(&buf)
		reg := metrics.NewRegistry()
		reg.SetSink(sink)
		rec := obs.NewRecorder(1024)
		TrainTraditional(h, Options{Rounds: 2, ItersPerRound: 2, WarmupIters: 3, Metrics: reg, Recorder: rec},
			rand.New(rand.NewSource(3)))
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := metrics.ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var fromEvents, fromSpans []float64
		for _, e := range events {
			if e.Name == "train/iter" {
				fromEvents = append(fromEvents, e.Fields["iter"])
			}
		}
		for _, e := range rec.Events() {
			if e.Name == "train/iter" {
				fromSpans = append(fromSpans, e.Args["iter"])
			}
		}
		for what, iters := range map[string][]float64{"events": fromEvents, "spans": fromSpans} {
			if len(iters) != 7 {
				t.Fatalf("%s: %d train/iter %s, want 7", name, len(iters), what)
			}
			for i, it := range iters {
				if it != float64(i) {
					t.Fatalf("%s: train/iter %s number %v, want 0..6", name, what, iters)
				}
			}
		}
	}
}

func TestHarnessEvalNeedFlags(t *testing.T) {
	for name, h := range realHarnesses(t) {
		cfg := h.Space().Default(nil)
		ev := h.Eval(cfg, 1, 0, rand.New(rand.NewSource(3)))
		if !math.IsNaN(ev.Baseline) || !math.IsNaN(ev.Optimal) {
			t.Errorf("%s: unrequested references computed: %+v", name, ev)
		}
		ev = h.Eval(cfg, 1, NeedBaseline, rand.New(rand.NewSource(3)))
		if math.IsNaN(ev.Baseline) {
			t.Errorf("%s: baseline missing", name)
		}
		if math.IsNaN(ev.RL) {
			t.Errorf("%s: RL reward missing", name)
		}
	}
}

func TestHarnessEvalOptimalAboveRL(t *testing.T) {
	// The oracle should essentially always beat a fresh random policy.
	for name, h := range realHarnesses(t) {
		cfg := h.Space().Default(nil)
		ev := h.Eval(cfg, 2, NeedOptimal, rand.New(rand.NewSource(4)))
		if math.IsNaN(ev.Optimal) {
			t.Errorf("%s: optimal missing", name)
			continue
		}
		if ev.Optimal < ev.RL {
			t.Errorf("%s: oracle %v below untrained RL %v", name, ev.Optimal, ev.RL)
		}
	}
}

func TestHarnessEvalDeterministicGivenSeed(t *testing.T) {
	for name, h := range realHarnesses(t) {
		cfg := h.Space().Default(nil)
		e1 := h.Eval(cfg, 2, NeedBaseline, rand.New(rand.NewSource(5)))
		e2 := h.Eval(cfg, 2, NeedBaseline, rand.New(rand.NewSource(5)))
		if e1.RL != e2.RL || e1.Baseline != e2.Baseline {
			t.Errorf("%s: eval not deterministic: %+v vs %+v", name, e1, e2)
		}
	}
}

func TestHarnessSnapshotIsolation(t *testing.T) {
	for name, h := range realHarnesses(t) {
		cfg := h.Space().Default(nil)
		before := h.Eval(cfg, 1, 0, rand.New(rand.NewSource(6))).RL
		snap := h.Snapshot()
		snap.Train(env.NewDistribution(h.Space()), 3, rand.New(rand.NewSource(7)))
		after := h.Eval(cfg, 1, 0, rand.New(rand.NewSource(6))).RL
		if before != after {
			t.Errorf("%s: training a snapshot changed the original (%v -> %v)", name, before, after)
		}
	}
}

func TestHarnessTrainingImproves(t *testing.T) {
	// On the narrow RL1 ranges a few dozen iterations must improve the
	// mean test reward for each use case. (CC starts from a random policy
	// whose collapse penalty is large, so even its hard exploration
	// problem shows clear improvement at this budget.)
	budgets := map[string]int{"abr": 60, "cc": 50, "lb": 30}
	for name, h := range realHarnesses(t) {
		cfg := h.Space().Default(nil)
		if name == "lb" {
			cfg = cfg.With(env.LBNumJobs, 150)
		}
		rng := rand.New(rand.NewSource(8))
		before := h.Eval(cfg, 3, 0, rand.New(rand.NewSource(9))).RL
		h.Train(env.NewDistribution(h.Space()), budgets[name], rng)
		after := h.Eval(cfg, 3, 0, rand.New(rand.NewSource(9))).RL
		if after <= before {
			t.Errorf("%s: training did not improve reward (%v -> %v)", name, before, after)
		}
	}
}

func TestABRHarnessTraceAugmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h, err := NewABRHarness(env.ABRSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 1, 50
	h.TraceSet = trace.GenerateSet(trace.SpecFCC, 3, rng)
	h.TraceProb = 1.0
	// Must train without errors when every env is trace-driven.
	curve := h.Train(env.NewDistribution(h.Space()), 2, rng)
	if len(curve) != 2 {
		t.Fatalf("curve len = %d", len(curve))
	}
}

func TestCCHarnessBaselineOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, err := NewCCHarness(env.CCSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.NewBaseline = func() cc.Sender { return cc.NewCubic() }
	cfg := h.Space().Default(nil)
	ev := h.Eval(cfg, 1, NeedBaseline, rand.New(rand.NewSource(12)))
	if math.IsNaN(ev.Baseline) {
		t.Fatal("cubic baseline missing")
	}
}

func TestABRHarnessBaselineOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h, err := NewABRHarness(env.ABRSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.NewBaseline = func() abr.Policy { return &abr.BBA{} }
	ev := h.Eval(h.Space().Default(nil), 1, NeedBaseline, rand.New(rand.NewSource(14)))
	if math.IsNaN(ev.Baseline) {
		t.Fatal("BBA baseline missing")
	}
}

func TestLBHarnessBaselineOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	h, err := NewLBHarness(env.LBSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.NewBaseline = func() lb.Policy { return lb.FewestRequests{} }
	ev := h.Eval(h.Space().Default(nil).With(env.LBNumJobs, 50), 1, NeedBaseline, rand.New(rand.NewSource(16)))
	if math.IsNaN(ev.Baseline) {
		t.Fatal("baseline missing")
	}
}

func TestGenetEndToEndOnABR(t *testing.T) {
	// Integration: the full Algorithm 2 loop on the real ABR harness at a
	// tiny budget runs, promotes configs, and leaves a usable model.
	rng := rand.New(rand.NewSource(17))
	h, err := NewABRHarness(env.ABRSpace(env.RL2), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 2, 60
	rep, err := NewTrainer(h, Options{
		Rounds: 2, ItersPerRound: 2, BOSteps: 3, EnvsPerEval: 1, WarmupIters: 2,
	}).Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	if rep.Distribution.NumPromoted() != 2 {
		t.Fatalf("promoted = %d", rep.Distribution.NumPromoted())
	}
	ev := h.Eval(h.Space().Default(nil), 1, 0, rand.New(rand.NewSource(18)))
	if math.IsNaN(ev.RL) {
		t.Fatal("model unusable after Genet run")
	}
}
