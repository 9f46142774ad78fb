package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
)

// fakeHarness is a cheap analytic stand-in for an RL codebase: the "model"
// is a point theta in the unit square; training pulls theta toward the mean
// of the sampled configurations; the model's reward at a config falls with
// the distance between theta and the config. The baseline is a fixed
// landscape. This makes trainer behaviour fully inspectable.
type fakeHarness struct {
	space *env.Space
	theta []float64
}

func newFakeHarness(t *testing.T) *fakeHarness {
	t.Helper()
	s, err := env.NewSpace(
		env.Dimension{Name: "x", Min: 0, Max: 1},
		env.Dimension{Name: "y", Min: 0, Max: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeHarness{space: s, theta: []float64{0.5, 0.5}}
}

func (f *fakeHarness) Space() *env.Space { return f.space }

func (f *fakeHarness) rl(cfg env.Config) float64 {
	u := cfg.Unit()
	d := 0.0
	for i := range u {
		d += (u[i] - f.theta[i]) * (u[i] - f.theta[i])
	}
	return 1 - math.Sqrt(d)
}

func (f *fakeHarness) baseline(cfg env.Config) float64 {
	return 0.9 - 0.2*cfg.Get("x")
}

func (f *fakeHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	curve := make([]float64, iters)
	for i := 0; i < iters; i++ {
		mean := []float64{0, 0}
		const k = 8
		for j := 0; j < k; j++ {
			u := dist.Sample(rng).Unit()
			mean[0] += u[0] / k
			mean[1] += u[1] / k
		}
		f.theta[0] += 0.3 * (mean[0] - f.theta[0])
		f.theta[1] += 0.3 * (mean[1] - f.theta[1])
		curve[i] = f.rl(f.space.Default(nil))
	}
	return curve
}

func (f *fakeHarness) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	res := EvalResult{RL: f.rl(cfg), Baseline: math.NaN(), Optimal: math.NaN()}
	if need&NeedBaseline != 0 {
		res.Baseline = f.baseline(cfg)
	}
	if need&NeedOptimal != 0 {
		res.Optimal = 1
	}
	return res
}

func (f *fakeHarness) Snapshot() Harness {
	cp := *f
	cp.theta = append([]float64(nil), f.theta...)
	return &cp
}

func TestTrainerDefaults(t *testing.T) {
	tr := NewTrainer(newFakeHarness(t), Options{})
	o := tr.Options()
	if o.Rounds != 9 || o.ItersPerRound != 10 || o.BOSteps != 15 ||
		o.EnvsPerEval != 10 || o.PromoteWeight != 0.3 || o.WarmupIters != 10 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Objective.Name != "genet" {
		t.Fatalf("default objective = %q", o.Objective.Name)
	}
}

func TestTrainerRunStructure(t *testing.T) {
	h := newFakeHarness(t)
	tr := NewTrainer(h, Options{Rounds: 3, ItersPerRound: 4, BOSteps: 6, EnvsPerEval: 1, WarmupIters: 2})
	rep, err := tr.Run(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WarmupCurve) != 2 {
		t.Fatalf("warmup curve len = %d", len(rep.WarmupCurve))
	}
	if len(rep.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	for i, r := range rep.Rounds {
		if r.Round != i {
			t.Fatalf("round index %d = %d", i, r.Round)
		}
		if len(r.TrainRewards) != 4 {
			t.Fatalf("round %d curve len = %d", i, len(r.TrainRewards))
		}
		if r.SearchEvals != 6 {
			t.Fatalf("round %d search evals = %d", i, r.SearchEvals)
		}
	}
	if rep.Distribution.NumPromoted() != 3 {
		t.Fatalf("promoted = %d", rep.Distribution.NumPromoted())
	}
	if got := len(rep.TrainingCurve()); got != 2+3*4 {
		t.Fatalf("training curve len = %d", got)
	}
}

func TestTrainerPromotesHighGapConfigs(t *testing.T) {
	// With theta at the center, the gap baseline-RL = (0.9-0.2x) - (1-dist)
	// is maximized far from theta at small x. The promoted config should
	// have meaningful distance from (0.5, 0.5).
	h := newFakeHarness(t)
	tr := NewTrainer(h, Options{Rounds: 1, ItersPerRound: 1, BOSteps: 20, EnvsPerEval: 1, WarmupIters: 1})
	rep, err := tr.Run(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Rounds[0].Promoted.Unit()
	dist := math.Hypot(p[0]-0.5, p[1]-0.5)
	if dist < 0.3 {
		t.Fatalf("promoted config %v too close to the model's strength", p)
	}
	if rep.Rounds[0].Score <= 0 {
		t.Fatalf("promoted score = %v, want positive gap", rep.Rounds[0].Score)
	}
}

func TestTrainerAfterRoundHook(t *testing.T) {
	h := newFakeHarness(t)
	var calls []int
	tr := NewTrainer(h, Options{
		Rounds: 2, ItersPerRound: 1, BOSteps: 3, EnvsPerEval: 1, WarmupIters: 1,
		AfterRound: func(round int) { calls = append(calls, round) },
	})
	if _, err := tr.Run(rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 0, 1}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("hook calls = %v, want %v", calls, want)
		}
	}
}

func TestObjectives(t *testing.T) {
	h := newFakeHarness(t)
	cfg := h.space.Default(nil).With("x", 0.2)
	ev := h.Eval(cfg, 1, NeedBaseline|NeedOptimal, rand.New(rand.NewSource(5)))

	gb := GapToBaselineObjective()
	if gb.Name != "genet" || gb.Need&NeedBaseline == 0 {
		t.Fatalf("gap-to-baseline objective = %+v", gb)
	}
	if got := gb.Score(cfg, ev); math.Abs(got-ev.GapToBaseline()) > 1e-12 {
		t.Fatalf("score = %v", got)
	}

	gOpt := GapToOptimumObjective()
	if gOpt.Need&NeedOptimal == 0 {
		t.Fatal("gap-to-optimum does not request the oracle")
	}
	if got := gOpt.Score(cfg, ev); math.Abs(got-ev.GapToOptimal()) > 1e-12 {
		t.Fatalf("score = %v", got)
	}

	bp := BaselinePerfObjective()
	if got := bp.Score(cfg, ev); math.Abs(got+ev.Baseline) > 1e-12 {
		t.Fatalf("CL2 score = %v", got)
	}

	rob := RobustifyObjective(0.5, func(c env.Config) float64 { return c.Get("x") })
	want := ev.GapToOptimal() - 0.5*0.2
	if got := rob.Score(cfg, ev); math.Abs(got-want) > 1e-9 {
		t.Fatalf("robustify score = %v, want %v", got, want)
	}
}

func TestObjectiveNaNGuard(t *testing.T) {
	// Missing evaluations (NaN) must never look attractive to BO.
	gb := GapToBaselineObjective()
	cfg := newFakeHarness(t).space.Default(nil)
	ev := EvalResult{RL: 1, Baseline: math.NaN()}
	if got := gb.Score(cfg, ev); !math.IsInf(got, -1) {
		t.Fatalf("NaN gap scored %v, want -inf", got)
	}
}

// evalCountingHarness is a fakeHarness that counts Eval calls.
type evalCountingHarness struct {
	*fakeHarness
	evals int
}

func (h *evalCountingHarness) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	h.evals++
	return h.fakeHarness.Eval(cfg, n, need, rng)
}

// TestTrainerSchedule: with Options.Schedule set (CL1) each round promotes
// the schedule's configuration, in order, with no search, no Eval and no
// rng draw beyond training itself.
func TestTrainerSchedule(t *testing.T) {
	schedule := func(round, total int, space *env.Space) env.Config {
		return space.Default(nil).With("x", float64(round+1)/float64(total))
	}
	h := &evalCountingHarness{fakeHarness: newFakeHarness(t)}
	rep, err := NewTrainer(h, Options{Rounds: 3, ItersPerRound: 2, WarmupIters: 1, Schedule: schedule}).Run(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "cl1-heuristic" {
		t.Fatalf("strategy = %q", rep.Strategy)
	}
	if len(rep.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	for i, r := range rep.Rounds {
		if want := float64(i+1) / 3; math.Abs(r.Promoted.Get("x")-want) > 1e-9 {
			t.Fatalf("round %d promoted x = %v, want %v", i, r.Promoted.Get("x"), want)
		}
		if r.SearchEvals != 0 || r.Search != nil {
			t.Fatalf("round %d searched: %d evals", i, r.SearchEvals)
		}
	}
	if h.evals != 0 {
		t.Fatalf("harness Eval called %d times", h.evals)
	}

	// The same promotions replayed by hand on the same stream land on the
	// same model, so the rounds drew nothing else from rng.
	ref := newFakeHarness(t)
	rng := rand.New(rand.NewSource(6))
	dist := env.NewDistribution(ref.space)
	ref.Train(dist, 1, rng)
	for r := 0; r < 3; r++ {
		if err := dist.Promote(schedule(r, 3, ref.space), 0.3); err != nil {
			t.Fatal(err)
		}
		ref.Train(dist, 2, rng)
	}
	if h.theta[0] != ref.theta[0] || h.theta[1] != ref.theta[1] {
		t.Fatalf("theta = %v, hand-driven rounds give %v", h.theta, ref.theta)
	}
}

// TestTrainTraditionalUniform: Algorithm 1 trains the equal budget in the
// curriculum's cadence, calling AfterRound after warm-up and every round,
// and lands where one unsplit uniform run of the same length does.
func TestTrainTraditionalUniform(t *testing.T) {
	h := newFakeHarness(t)
	var calls []int
	opts := Options{Rounds: 2, ItersPerRound: 2, WarmupIters: 1, AfterRound: func(r int) { calls = append(calls, r) }}
	curve := TrainTraditional(h, opts, rand.New(rand.NewSource(7)))
	if len(curve) != opts.TraditionalIters() || len(curve) != 5 {
		t.Fatalf("curve len = %d", len(curve))
	}
	if len(calls) != 3 || calls[0] != -1 || calls[1] != 0 || calls[2] != 1 {
		t.Fatalf("hook calls = %v, want [-1 0 1]", calls)
	}
	// Uniform training pulls theta toward the space center.
	if math.Abs(h.theta[0]-0.5) > 0.2 || math.Abs(h.theta[1]-0.5) > 0.2 {
		t.Fatalf("theta after uniform training = %v", h.theta)
	}
	ref := newFakeHarness(t)
	ref.Train(env.NewDistribution(ref.space), 5, rand.New(rand.NewSource(7)))
	if h.theta[0] != ref.theta[0] || h.theta[1] != ref.theta[1] {
		t.Fatalf("round-split theta = %v, one run gives %v", h.theta, ref.theta)
	}
}

func TestEvalOverDistribution(t *testing.T) {
	h := newFakeHarness(t)
	dist := env.NewDistribution(h.space)
	evals := EvalOverDistribution(h, dist, 7, NeedBaseline, rand.New(rand.NewSource(8)))
	if len(evals) != 7 {
		t.Fatalf("evals = %d", len(evals))
	}
	for _, ev := range evals {
		if math.IsNaN(ev.Baseline) {
			t.Fatal("baseline missing despite NeedBaseline")
		}
	}
}

func TestSnapshotIndependence(t *testing.T) {
	h := newFakeHarness(t)
	snap := h.Snapshot()
	dist := env.NewDistribution(h.space)
	snap.Train(dist, 10, rand.New(rand.NewSource(10)))
	if h.theta[0] != 0.5 || h.theta[1] != 0.5 {
		t.Fatal("training a snapshot mutated the original")
	}
}

func TestNormalizedObjectivesFallback(t *testing.T) {
	// A harness without normalized rewards (HasNorm false) must fall back
	// to the raw gaps.
	h := newFakeHarness(t)
	cfg := h.space.Default(nil).With("x", 0.1)
	ev := h.Eval(cfg, 1, NeedBaseline|NeedOptimal, rand.New(rand.NewSource(20)))
	if ev.HasNorm {
		t.Fatal("fake harness should not report normalized rewards")
	}
	ng := NormalizedGapObjective()
	if got := ng.Score(cfg, ev); math.Abs(got-ev.GapToBaseline()) > 1e-12 {
		t.Fatalf("fallback gap = %v, want %v", got, ev.GapToBaseline())
	}
	no := NormalizedOptGapObjective()
	if got := no.Score(cfg, ev); math.Abs(got-ev.GapToOptimal()) > 1e-12 {
		t.Fatalf("fallback opt gap = %v, want %v", got, ev.GapToOptimal())
	}
}

func TestNormalizedObjectivesUseNormWhenPresent(t *testing.T) {
	cfg := newFakeHarness(t).space.Default(nil)
	ev := EvalResult{
		RL: 100, Baseline: 200, Optimal: 300,
		HasNorm: true, RLNorm: 0.1, BaselineNorm: 0.5, OptimalNorm: 0.9,
	}
	if got := NormalizedGapObjective().Score(cfg, ev); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("normalized gap = %v, want 0.4", got)
	}
	if got := NormalizedOptGapObjective().Score(cfg, ev); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("normalized opt gap = %v, want 0.8", got)
	}
}

func TestCCHarnessReportsNormalizedRewards(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h, err := NewCCHarness(env.CCSpace(env.RL1), rng)
	if err != nil {
		t.Fatal(err)
	}
	ev := h.Eval(h.Space().Default(nil), 2, NeedBaseline, rand.New(rand.NewSource(22)))
	if !ev.HasNorm {
		t.Fatal("CC harness must report normalized rewards")
	}
	if math.IsNaN(ev.RLNorm) || math.IsNaN(ev.BaselineNorm) {
		t.Fatalf("normalized fields missing: %+v", ev)
	}
	// Normalized values live on a bounded scale.
	if math.Abs(ev.RLNorm) > 50 || math.Abs(ev.BaselineNorm) > 50 {
		t.Fatalf("normalized values out of scale: %+v", ev)
	}
}

// TestTraditionalIters pins the equal-budget rule: a traditional run
// matched to a curriculum trains for its resolved warm-up plus every
// round's iterations.
func TestTraditionalIters(t *testing.T) {
	for _, tc := range []struct {
		warmup, want int
	}{
		{0, 10 + 2*3}, // default warm-up
		{-1, 2 * 3},   // none
		{4, 4 + 2*3},  // explicit
	} {
		if got := (Options{Rounds: 2, ItersPerRound: 3, WarmupIters: tc.warmup}).TraditionalIters(); got != tc.want {
			t.Errorf("WarmupIters %d: TraditionalIters = %d, want %d", tc.warmup, got, tc.want)
		}
	}
	if got := (Options{}).TraditionalIters(); got != 10+9*10 {
		t.Errorf("defaults: TraditionalIters = %d, want %d", got, 10+9*10)
	}
}
