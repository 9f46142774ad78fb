package core

import (
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// ABRHarness adapts the adaptive-bitrate use case (Pensieve-style A3C
// training) to the Fig 8 Train/Test interface.
type ABRHarness struct {
	// Agent is the RL model under training.
	Agent *rl.DiscreteAgent
	// NewBaseline constructs the rule-based baseline (fresh per
	// evaluation because some baselines, like MPC, carry per-session
	// state).
	NewBaseline func() abr.Policy
	// Ensemble optionally replaces the single baseline with a set; the
	// per-environment baseline reward becomes the max over members —
	// the "ensemble of rule-based heuristics" refinement the paper
	// sketches in §7 and footnote 6.
	Ensemble []func() abr.Policy
	// TraceSet optionally augments training with trace-driven
	// environments (§4.2); nil trains on synthetic traces only.
	TraceSet *trace.Set
	// TraceProb is the trace-driven mixing probability w (default 0.3
	// when a TraceSet is present).
	TraceProb float64
	// EnvsPerIter and StepsPerIter size one Algorithm 1 training
	// iteration (defaults 8 environments, 400 steps).
	EnvsPerIter  int
	StepsPerIter int
	// OmniscientHorizon is the oracle's look-ahead (default 6).
	OmniscientHorizon int
	// Metrics optionally receives per-iteration training telemetry; set it
	// via SetMetrics so the agent's per-update stream is attached too.
	Metrics *metrics.Registry
	// Recorder optionally records train/iter spans (and, through the
	// agent, rl/rollout and rl/update); set it via SetRecorder.
	Recorder *obs.Recorder

	space *env.Space
}

// SetMetrics implements MetricsSetter: per-iteration rewards flow from the
// harness, per-update losses from the agent, into the same registry.
func (h *ABRHarness) SetMetrics(m *metrics.Registry) {
	h.Metrics = m
	h.Agent.Metrics = m
}

// NewABRHarness builds a harness over the given configuration space with a
// freshly initialized agent. RobustMPC is the default baseline.
func NewABRHarness(space *env.Space, rng *rand.Rand) (*ABRHarness, error) {
	cfg := rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps))
	// ABR training rewards are normalized to roughly [-5, 2] (see
	// abr.TrainReward); the entropy bonus shrinks proportionally so the
	// exploration pressure matches the unnormalized default.
	cfg.Entropy = 0.04
	agent, err := rl.NewDiscreteAgent(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &ABRHarness{
		Agent:        agent,
		NewBaseline:  func() abr.Policy { return abr.NewRobustMPC() },
		TraceProb:    0.3,
		EnvsPerIter:  8,
		StepsPerIter: abrStepsPerIter,
		space:        space,
	}, nil
}

// Space implements Harness.
func (h *ABRHarness) Space() *env.Space { return h.space }

// Train implements Harness.
func (h *ABRHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	venv := abr.NewVecEnv(abr.IntoFromDistribution(dist, h.TraceSet, h.traceProb()), h.envsPerIter())
	h.Agent.Reserve(h.envsPerIter() * h.stepsPerIter())
	curve := make([]float64, iters)
	for i := 0; i < iters; i++ {
		sp := h.Recorder.Start("train/iter")
		reward, _ := h.Agent.TrainIterationVec(venv, h.stepsPerIter(), rng)
		curve[i] = reward
		emitTrainIter(h.Metrics, i, reward)
		endTrainIterSpan(h.Recorder, sp, i, reward)
	}
	return curve
}

func (h *ABRHarness) traceProb() float64 {
	if h.TraceSet == nil || h.TraceSet.Len() == 0 {
		return 0
	}
	if h.TraceProb <= 0 {
		return 0.3
	}
	return h.TraceProb
}

func (h *ABRHarness) envsPerIter() int {
	if h.EnvsPerIter > 0 {
		return h.EnvsPerIter
	}
	return 8
}

func (h *ABRHarness) stepsPerIter() int {
	if h.StepsPerIter > 0 {
		return h.StepsPerIter
	}
	return abrStepsPerIter
}

// abrStepsPerIter is the default StepsPerIter.
const abrStepsPerIter = 400

// baselineReward evaluates the baseline (or the max over the ensemble) on
// one instance.
func (h *ABRHarness) baselineReward(inst *abr.Instance) float64 {
	if len(h.Ensemble) == 0 {
		return inst.Evaluate(h.NewBaseline()).MeanReward
	}
	best := math.Inf(-1)
	for _, mk := range h.Ensemble {
		if r := inst.Evaluate(mk()).MeanReward; r > best {
			best = r
		}
	}
	return best
}

// Eval implements Harness: paired evaluation of the RL model, the baseline,
// and (when requested) the ground-truth MPC oracle over n environments
// generated from cfg. All policies stream identical instances; instances
// are evaluated in parallel with per-index seeds, so results are
// deterministic regardless of scheduling.
func (h *ABRHarness) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	type sample struct {
		rl, bl, opt float64
		ok          bool
	}
	samples := make([]sample, n)
	par.For(n, func(i int) {
		inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(seeds[i])))
		if err != nil {
			return
		}
		s := sample{ok: true}
		s.rl = inst.Evaluate(&abr.AgentPolicy{Agent: h.Agent}).MeanReward
		if need&NeedBaseline != 0 {
			s.bl = h.baselineReward(inst)
		}
		if need&NeedOptimal != 0 {
			s.opt = inst.EvaluateOmniscient(h.OmniscientHorizon).MeanReward
		}
		samples[i] = s
	})

	res := EvalResult{Baseline: math.NaN(), Optimal: math.NaN()}
	var rlR, blR, optR []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		rlR = append(rlR, s.rl)
		if need&NeedBaseline != 0 {
			blR = append(blR, s.bl)
		}
		if need&NeedOptimal != 0 {
			optR = append(optR, s.opt)
		}
	}
	res.RL = stats.Mean(rlR)
	if len(blR) > 0 {
		res.Baseline = stats.Mean(blR)
	}
	if len(optR) > 0 {
		res.Optimal = stats.Mean(optR)
	}
	return res
}

// Snapshot implements Harness.
func (h *ABRHarness) Snapshot() Harness {
	cp := *h
	cp.Agent = h.Agent.Clone()
	return &cp
}
