package core

import (
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/stats"
)

// LBHarness adapts the load-balancing use case (Park-style training) to the
// Fig 8 Train/Test interface.
type LBHarness struct {
	// Agent is the RL model under training.
	Agent *rl.DiscreteAgent
	// NewBaseline constructs the rule-based baseline (default
	// least-load-first).
	NewBaseline func() lb.Policy
	// Ensemble optionally replaces the single baseline with a set whose
	// per-environment reward is the max over members (§7).
	Ensemble []func() lb.Policy
	// EnvsPerIter and StepsPerIter size one training iteration
	// (defaults 4 environments, 600 job assignments).
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
func (h *LBHarness) SetMetrics(m *metrics.Registry) {
	h.Metrics = m
	h.Agent.Metrics = m
}

// NewLBHarness builds a harness over the given configuration space with a
// freshly initialized agent and LLF as the default baseline.
func NewLBHarness(space *env.Space, rng *rand.Rand) (*LBHarness, error) {
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(lb.ObsSize, lb.NumServers), rng)
	if err != nil {
		return nil, err
	}
	return &LBHarness{
		Agent:        agent,
		NewBaseline:  func() lb.Policy { return lb.LLF{} },
		EnvsPerIter:  4,
		StepsPerIter: lbStepsPerIter,
		space:        space,
	}, nil
}

// Space implements Harness.
func (h *LBHarness) Space() *env.Space { return h.space }

// Train implements Harness.
func (h *LBHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	venv := lb.NewVecEnv(lb.GenFromDistribution(dist), h.envsPerIter())
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

func (h *LBHarness) envsPerIter() int {
	if h.EnvsPerIter > 0 {
		return h.EnvsPerIter
	}
	return 4
}

func (h *LBHarness) stepsPerIter() int {
	if h.StepsPerIter > 0 {
		return h.StepsPerIter
	}
	return lbStepsPerIter
}

// lbStepsPerIter is the default StepsPerIter.
const lbStepsPerIter = 600

func (h *LBHarness) baselineReward(e *lb.Env, seed int64) (float64, bool) {
	if len(h.Ensemble) == 0 {
		m, err := e.Run(h.NewBaseline(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return 0, false
		}
		return m.MeanReward, true
	}
	best := math.Inf(-1)
	any := false
	for _, mk := range h.Ensemble {
		m, err := e.Run(mk(), rand.New(rand.NewSource(seed)))
		if err != nil {
			continue
		}
		any = true
		if m.MeanReward > best {
			best = m.MeanReward
		}
	}
	return best, any
}

// Eval implements Harness: paired evaluation over n workloads generated
// from cfg with shared observation-noise seeds, evaluated in parallel.
func (h *LBHarness) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	envSeeds := make([]int64, n)
	noiseSeeds := make([]int64, n)
	for i := 0; i < n; i++ {
		envSeeds[i] = rng.Int63()
		noiseSeeds[i] = rng.Int63()
	}
	type sample struct {
		rl, bl, opt float64
		okRL, okBL  bool
		okOpt       bool
	}
	samples := make([]sample, n)
	par.For(n, func(i int) {
		e, err := lb.NewEnvFromConfig(cfg, rand.New(rand.NewSource(envSeeds[i])))
		if err != nil {
			return
		}
		var s sample
		m, err := e.Run(&lb.AgentPolicy{Agent: h.Agent}, rand.New(rand.NewSource(noiseSeeds[i])))
		if err != nil {
			return
		}
		s.rl, s.okRL = m.MeanReward, true
		if need&NeedBaseline != 0 {
			s.bl, s.okBL = h.baselineReward(e, noiseSeeds[i])
		}
		if need&NeedOptimal != 0 {
			rates, err := lb.OracleRatesFor(e)
			if err == nil {
				om, err := e.Run(&lb.Oracle{Rates: rates}, rand.New(rand.NewSource(noiseSeeds[i])))
				if err == nil {
					s.opt, s.okOpt = om.MeanReward, true
				}
			}
		}
		samples[i] = s
	})

	res := EvalResult{Baseline: math.NaN(), Optimal: math.NaN()}
	var rlR, blR, optR []float64
	for _, s := range samples {
		if s.okRL {
			rlR = append(rlR, s.rl)
		}
		if s.okBL {
			blR = append(blR, s.bl)
		}
		if s.okOpt {
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
func (h *LBHarness) Snapshot() Harness {
	cp := *h
	cp.Agent = h.Agent.Clone()
	return &cp
}
