package core

import (
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// CCHarness adapts the congestion-control use case (Aurora-style PPO
// training) to the Fig 8 Train/Test interface.
type CCHarness struct {
	// Agent is the RL model under training.
	Agent *rl.GaussianAgent
	// NewBaseline constructs the rule-based baseline (default BBR).
	NewBaseline func() cc.Sender
	// Ensemble optionally replaces the single baseline with a set whose
	// per-environment reward is the max over members (§7).
	Ensemble []func() cc.Sender
	// TraceSet optionally augments training with trace-driven
	// environments; nil trains on synthetic traces only.
	TraceSet *trace.Set
	// TraceProb is the trace-driven mixing probability (default 0.3 when
	// a TraceSet is present).
	TraceProb float64
	// EnvsPerIter and StepsPerIter size one training iteration
	// (defaults 4 environments, 800 monitor intervals).
	EnvsPerIter  int
	StepsPerIter int
	// Metrics optionally receives per-iteration training telemetry; set it
	// via SetMetrics so the agent's per-update stream is attached too.
	Metrics *metrics.Registry
	// Recorder optionally records train/iter spans (and, through the
	// agent, rl/rollout and rl/update); set it via SetRecorder.
	Recorder *obs.Recorder

	space *env.Space
}

// SetMetrics implements MetricsSetter.
func (h *CCHarness) SetMetrics(m *metrics.Registry) {
	h.Metrics = m
	h.Agent.Metrics = m
}

// NewCCHarness builds a harness over the given configuration space with a
// freshly initialized agent and BBR as the default baseline.
func NewCCHarness(space *env.Space, rng *rand.Rand) (*CCHarness, error) {
	agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
	if err != nil {
		return nil, err
	}
	return &CCHarness{
		Agent:        agent,
		NewBaseline:  func() cc.Sender { return cc.NewBBR() },
		TraceProb:    0.3,
		EnvsPerIter:  4,
		StepsPerIter: ccStepsPerIter,
		space:        space,
	}, nil
}

// Space implements Harness.
func (h *CCHarness) Space() *env.Space { return h.space }

// Train implements Harness.
func (h *CCHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	traceProb := 0.0
	if h.TraceSet != nil && h.TraceSet.Len() > 0 {
		traceProb = h.TraceProb
		if traceProb <= 0 {
			traceProb = 0.3
		}
	}
	venv := cc.NewVecEnv(cc.IntoFromDistribution(dist, h.TraceSet, traceProb), h.envsPerIter())
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

func (h *CCHarness) envsPerIter() int {
	if h.EnvsPerIter > 0 {
		return h.EnvsPerIter
	}
	return 4
}

func (h *CCHarness) stepsPerIter() int {
	if h.StepsPerIter > 0 {
		return h.StepsPerIter
	}
	return ccStepsPerIter
}

// ccStepsPerIter is the default StepsPerIter.
const ccStepsPerIter = 800

func (h *CCHarness) baselineReward(inst *cc.Instance, seed int64) float64 {
	if len(h.Ensemble) == 0 {
		return inst.Evaluate(h.NewBaseline(), rand.New(rand.NewSource(seed))).MeanReward
	}
	best := math.Inf(-1)
	for _, mk := range h.Ensemble {
		r := inst.Evaluate(mk(), rand.New(rand.NewSource(seed))).MeanReward
		if r > best {
			best = r
		}
	}
	return best
}

// Eval implements Harness: paired evaluation over n environments generated
// from cfg. Every policy faces the same instance and the same noise seed
// (common random numbers); instances run in parallel with per-index seeds.
func (h *CCHarness) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	instSeeds := make([]int64, n)
	noiseSeeds := make([]int64, n)
	for i := 0; i < n; i++ {
		instSeeds[i] = rng.Int63()
		noiseSeeds[i] = rng.Int63()
	}
	type sample struct {
		rl, bl, opt float64
		scale       float64
		ok          bool
	}
	samples := make([]sample, n)
	par.For(n, func(i int) {
		inst, err := cc.NewInstance(cfg, nil, rand.New(rand.NewSource(instSeeds[i])))
		if err != nil {
			return
		}
		s := sample{ok: true, scale: cc.RewardScale(inst.Trace.Mean())}
		agent := &cc.AgentSender{Agent: h.Agent}
		s.rl = inst.Evaluate(agent, rand.New(rand.NewSource(noiseSeeds[i]))).MeanReward
		if need&NeedBaseline != 0 {
			s.bl = h.baselineReward(inst, noiseSeeds[i])
		}
		if need&NeedOptimal != 0 {
			s.opt = inst.EvaluateOracle(rand.New(rand.NewSource(noiseSeeds[i]))).MeanReward
		}
		samples[i] = s
	})

	res := EvalResult{Baseline: math.NaN(), Optimal: math.NaN(), HasNorm: true}
	var rlR, blR, optR []float64
	var rlN, blN, optN []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		rlR = append(rlR, s.rl)
		rlN = append(rlN, s.rl/s.scale)
		if need&NeedBaseline != 0 {
			blR = append(blR, s.bl)
			blN = append(blN, s.bl/s.scale)
		}
		if need&NeedOptimal != 0 {
			optR = append(optR, s.opt)
			optN = append(optN, s.opt/s.scale)
		}
	}
	res.RL = stats.Mean(rlR)
	res.RLNorm = stats.Mean(rlN)
	res.BaselineNorm, res.OptimalNorm = math.NaN(), math.NaN()
	if len(blR) > 0 {
		res.Baseline = stats.Mean(blR)
		res.BaselineNorm = stats.Mean(blN)
	}
	if len(optR) > 0 {
		res.Optimal = stats.Mean(optR)
		res.OptimalNorm = stats.Mean(optN)
	}
	return res
}

// Snapshot implements Harness.
func (h *CCHarness) Snapshot() Harness {
	cp := *h
	cp.Agent = h.Agent.Clone()
	return &cp
}
