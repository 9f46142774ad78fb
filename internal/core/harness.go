// Package core implements the Genet training framework (the paper's primary
// contribution): curriculum generation by Bayesian-optimization search for
// environment configurations where the current RL model has a large
// gap-to-baseline (Algorithm 2), the traditional uniform-sampling RL
// training it builds on (Algorithm 1), and the alternative curriculum
// strategies evaluated in §5.5 (CL1 hand-picked difficulty, CL2 baseline
// performance, CL3 gap-to-optimum, and the Robustify-style BO objective).
//
// The package is use-case agnostic: it drives any RL codebase through the
// two-call Train/Test abstraction of Fig 8. One implementation of it serves
// every row of UseCases; a row contributes only its simulator's training
// vec env and its paired evaluation of one environment (usecase.go).
package core

import (
	"io"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// EvalNeed selects which reference policies an Eval call must run alongside
// the RL model. Skipping the optimal oracle when it is not needed matters:
// it is by far the most expensive evaluation.
type EvalNeed int

// EvalNeed flags.
const (
	NeedBaseline EvalNeed = 1 << iota
	NeedOptimal
)

// EvalResult carries mean rewards over the evaluated environments. Fields
// that were not requested are NaN.
//
// The Norm fields carry the same rewards normalized per environment (each
// episode divided by its environment's reward scale before averaging);
// HasNorm reports whether the harness computes them. Only the CC harness
// does — its raw rewards are proportional to link bandwidth, so normalized
// gaps are the meaningful search signal there (see cc.RewardScale).
type EvalResult struct {
	RL       float64
	Baseline float64
	Optimal  float64

	HasNorm      bool
	RLNorm       float64
	BaselineNorm float64
	OptimalNorm  float64
}

// NormGapToBaseline returns the normalized gap when available, falling back
// to the raw gap.
func (e EvalResult) NormGapToBaseline() float64 {
	if e.HasNorm {
		return e.BaselineNorm - e.RLNorm
	}
	return e.GapToBaseline()
}

// NormGapToOptimal returns the normalized gap-to-optimum when available,
// falling back to the raw gap.
func (e EvalResult) NormGapToOptimal() float64 {
	if e.HasNorm {
		return e.OptimalNorm - e.RLNorm
	}
	return e.GapToOptimal()
}

// GapToBaseline returns Baseline − RL, the quantity Genet maximizes.
func (e EvalResult) GapToBaseline() float64 { return e.Baseline - e.RL }

// GapToOptimal returns Optimal − RL (Strawman 3 / CL3 / Robustify).
func (e EvalResult) GapToOptimal() float64 { return e.Optimal - e.RL }

// Harness is the Fig 8 integration surface between Genet and an existing RL
// training codebase:
//
//	RL_Model = Train(ConfigDistrib, NumIters)
//	Reward   = Test(RL_Model | Baseline, ConfigDistrib, NumTests)
//
// Train continues training the harness's model in place over environments
// sampled from dist and returns the mean training episode reward of each
// iteration. Eval tests the current model (and the requested references) on
// n environments generated from cfg with common random numbers, so gaps are
// paired comparisons.
type Harness interface {
	// Train runs iters training iterations over dist and returns the
	// per-iteration mean training rewards (len == iters).
	Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64
	// Eval returns mean rewards over n environments drawn from cfg.
	Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult
	// Snapshot returns a deep copy whose training does not affect the
	// original (used for intermediate-model experiments and checkpoints).
	Snapshot() Harness
	// Space returns the environment configuration space the harness
	// trains over.
	Space() *env.Space
}

// MetricsSetter is implemented by harnesses that support telemetry: it
// attaches a registry to the harness and its agent. It is a separate
// interface rather than a Harness method so third-party harnesses keep
// compiling.
type MetricsSetter interface {
	SetMetrics(*metrics.Registry)
}

// GuardSetter is implemented by harnesses whose agent supports the
// training-health watchdog. Like MetricsSetter it is optional so
// third-party harnesses keep compiling.
type GuardSetter interface {
	SetGuard(*guard.Guard)
}

// FaultSetter is implemented by harnesses whose agent supports
// deterministic fault injection (chaos testing).
type FaultSetter interface {
	SetFaults(*faults.Injector)
}

// RecorderSetter is implemented by harnesses that support the flight
// recorder: it attaches the recorder to the harness and its agent so
// train/iter, rl/rollout, and rl/update spans land in one ring.
type RecorderSetter interface {
	SetRecorder(*obs.Recorder)
}

// AttachHooks wires a run's runtime hooks into h through whichever of
// MetricsSetter, GuardSetter, FaultSetter and RecorderSetter it implements:
// the metrics registry, the watchdog (which then counts into m), the fault
// injector and the flight recorder. Nil hooks are left unattached. Every
// training path calls it: NewTrainer for the curriculum strategies, the
// CLIs and the fleet for traditional training.
func AttachHooks(h Harness, m *metrics.Registry, g *guard.Guard, in *faults.Injector, rec *obs.Recorder) {
	if s, ok := h.(MetricsSetter); ok && m.Enabled() {
		s.SetMetrics(m)
	}
	if g.Enabled() {
		if s, ok := h.(GuardSetter); ok {
			s.SetGuard(g)
		}
		if m.Enabled() {
			g.SetMetrics(m)
		}
	}
	if s, ok := h.(FaultSetter); ok && in != nil {
		s.SetFaults(in)
	}
	if s, ok := h.(RecorderSetter); ok && rec.Enabled() {
		s.SetRecorder(rec)
	}
}

// useCaseHarness is the one Harness implementation, shared by every use
// case: A is the RL agent type, P the rule-based baseline's type. The use
// case contributes its useCaseSim (training vec env and paired evaluation
// of one environment); the Train loop, the iteration sizing, the trace
// mixing, the ensemble max and Eval's seeding and aggregation exist once,
// here. ABRHarness, CCHarness and LBHarness are its instantiations.
type useCaseHarness[A rlAgent[A], P any] struct {
	// Agent is the RL model under training.
	Agent A
	// NewBaseline constructs the rule-based baseline, fresh per evaluated
	// environment because some baselines (MPC, BBR) carry per-session
	// state.
	NewBaseline func() P
	// Ensemble optionally replaces the single baseline with a set; the
	// per-environment baseline reward becomes the max over members — the
	// "ensemble of rule-based heuristics" refinement the paper sketches in
	// §7 and footnote 6.
	Ensemble []func() P
	// TraceSet optionally augments training with trace-driven environments
	// (§4.2); nil trains on synthetic traces only. It applies only to use
	// cases whose UseCase row has TraceDriven (abr and cc); lb ignores it.
	TraceSet *trace.Set
	// TraceProb is the trace-driven mixing probability w (0.3 when it is
	// not positive and a TraceSet is present).
	TraceProb float64
	// EnvsPerIter and StepsPerIter size one Algorithm 1 training iteration:
	// environments stepped in lockstep and total environment steps. Not
	// positive means the use case's default (abr 8 x 400, cc 4 x 800, lb
	// 4 x 600).
	EnvsPerIter  int
	StepsPerIter int
	// Metrics optionally receives per-iteration training telemetry; set it
	// via SetMetrics so the agent's per-update stream is attached too.
	Metrics *metrics.Registry
	// Recorder optionally records train/iter spans (and, through the
	// agent, rl/rollout and rl/update); set it via SetRecorder.
	Recorder *obs.Recorder

	space *env.Space
	uc    *UseCase
	sim   *useCaseSim[A, P]
}

// rlAgent is what the harness calls on an rl agent type.
type rlAgent[A any] interface {
	Clone() A
	Reserve(steps int)
	Save(w io.Writer) error
	SaveState(w io.Writer) error
}

// useCaseSim is one use case's part of the Harness implementation, kept
// next to its UseCases row.
type useCaseSim[A rlAgent[A], P any] struct {
	kind agentKind[A]
	// newAgent draws a freshly initialized agent.
	newAgent func(*rand.Rand) (A, error)
	// baselines holds a constructor for each of the row's Baselines; the
	// row's first name is the default.
	baselines map[string]func() P
	// envsPerIter is the default EnvsPerIter (the row holds StepsPerIter).
	envsPerIter int
	// evalSeeds is how many Int63 draws Eval takes per environment, in
	// environment order: abr draws the instance seed, cc and lb the
	// instance and the noise seed.
	evalSeeds int
	// norm marks a use case whose Eval also reports means normalized by
	// each environment's reward scale (cc; see EvalResult).
	norm bool
	// vecEnv builds width training environments sampled from dist, each
	// replaying a trace from ts with probability traceProb, and returns one
	// training iteration over them.
	vecEnv func(dist *env.Distribution, ts *trace.Set, traceProb float64, width int) trainIter[A]
	// eval is the paired evaluation of one environment generated from cfg
	// and seeds: the RL model, the baseline (or the ensemble max) when need
	// has NeedBaseline, and the oracle when it has NeedOptimal.
	eval func(h *useCaseHarness[A, P], cfg env.Config, need EvalNeed, seeds [2]int64) evalSample
}

// trainIter runs one training iteration of steps environment steps and
// returns the mean training episode reward.
type trainIter[A any] func(agent A, steps int, rng *rand.Rand) float64

// discreteIter and gaussianIter bind a vec env to its agent's training
// iteration.
func discreteIter(v rl.DiscreteVecEnv) trainIter[*rl.DiscreteAgent] {
	return func(a *rl.DiscreteAgent, steps int, rng *rand.Rand) float64 {
		r, _ := a.TrainIterationVec(v, steps, rng)
		return r
	}
}

func gaussianIter(v rl.ContinuousVecEnv) trainIter[*rl.GaussianAgent] {
	return func(a *rl.GaussianAgent, steps int, rng *rand.Rand) float64 {
		r, _ := a.TrainIterationVec(v, steps, rng)
		return r
	}
}

// evalSample is one environment's paired evaluation. Each reward counts
// only when its ok flag is set; scale is the environment's reward scale
// for use cases that normalize.
type evalSample struct {
	rl, bl, opt       float64
	okRL, okBL, okOpt bool
	scale             float64
}

// harness builds u's harness over space with a freshly initialized agent
// and the default baseline.
func (s *useCaseSim[A, P]) harness(u *UseCase, space *env.Space, rng *rand.Rand) (*useCaseHarness[A, P], error) {
	agent, err := s.newAgent(rng)
	if err != nil {
		return nil, err
	}
	return &useCaseHarness[A, P]{
		Agent:        agent,
		NewBaseline:  s.baselines[u.Baselines[0]],
		TraceProb:    0.3,
		EnvsPerIter:  s.envsPerIter,
		StepsPerIter: u.StepsPerIter,
		space:        space,
		uc:           u,
		sim:          s,
	}, nil
}

// newHarness implements harnessSim.
func (s *useCaseSim[A, P]) newHarness(u *UseCase, space *env.Space, baseline string, envs, steps int, rng *rand.Rand) (Harness, error) {
	h, err := s.harness(u, space, rng)
	if err != nil {
		return nil, err
	}
	if baseline != "" {
		h.NewBaseline = s.baselines[baseline]
	}
	if envs > 0 {
		h.EnvsPerIter = envs
	}
	if steps > 0 {
		h.StepsPerIter = steps
	}
	return h, nil
}

// Space implements Harness.
func (h *useCaseHarness[A, P]) Space() *env.Space { return h.space }

// Train implements Harness. Telemetry and spans are observation-only —
// they never draw from rng — so attaching them cannot change a run.
func (h *useCaseHarness[A, P]) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	envs, steps := h.EnvsPerIter, h.StepsPerIter
	if envs <= 0 {
		envs = h.sim.envsPerIter
	}
	if steps <= 0 {
		steps = h.uc.StepsPerIter
	}
	iterate := h.sim.vecEnv(dist, h.TraceSet, h.traceProb(), envs)
	h.Agent.Reserve(envs * steps)
	curve := make([]float64, iters)
	for i := range curve {
		sp := h.Recorder.Start("train/iter")
		reward := iterate(h.Agent, steps, rng)
		curve[i] = reward
		if h.Metrics.Enabled() {
			h.Metrics.Counter("train/iters").Inc()
			h.Metrics.Gauge("train/last_reward").Set(reward)
			h.Metrics.Emit("train/iter",
				metrics.F{K: "iter", V: float64(i)},
				metrics.F{K: "reward", V: reward})
		}
		// The Enabled guard keeps the disabled path free of the variadic
		// arg slice.
		if h.Recorder.Enabled() {
			sp.EndArgs(
				obs.Arg{K: "iter", V: float64(i)},
				obs.Arg{K: "reward", V: reward})
		}
	}
	return curve
}

// traceProb resolves the trace-driven mixing probability: 0 without a
// trace set or for a use case that is not trace-driven.
func (h *useCaseHarness[A, P]) traceProb() float64 {
	if !h.uc.TraceDriven || h.TraceSet == nil || h.TraceSet.Len() == 0 {
		return 0
	}
	if h.TraceProb <= 0 {
		return 0.3
	}
	return h.TraceProb
}

// baseline scores the baseline through run or, with an Ensemble, the best
// member that ran; ok is false when nothing ran.
func (h *useCaseHarness[A, P]) baseline(run func(P) (float64, bool)) (best float64, ok bool) {
	if len(h.Ensemble) == 0 {
		return run(h.NewBaseline())
	}
	best = math.Inf(-1)
	for _, mk := range h.Ensemble {
		r, rok := run(mk())
		if !rok {
			continue
		}
		ok = true
		if r > best {
			best = r
		}
	}
	return best, ok
}

// Eval implements Harness: paired evaluation of the RL model, the baseline
// and (when requested) the oracle over n environments generated from cfg.
// Every policy faces the same environment and, where the simulator is
// noisy, the same noise seed (common random numbers). Seeds are drawn in
// environment order before the environments run in parallel, so results
// do not depend on scheduling.
func (h *useCaseHarness[A, P]) Eval(cfg env.Config, n int, need EvalNeed, rng *rand.Rand) EvalResult {
	seeds := make([][2]int64, n)
	for i := range seeds {
		for j := 0; j < h.sim.evalSeeds; j++ {
			seeds[i][j] = rng.Int63()
		}
	}
	samples := make([]evalSample, n)
	par.For(n, func(i int) { samples[i] = h.sim.eval(h, cfg, need, seeds[i]) })

	collect := func(pick func(*evalSample) (float64, bool)) (raw, norm []float64) {
		for i := range samples {
			if r, ok := pick(&samples[i]); ok {
				raw = append(raw, r)
				if h.sim.norm {
					norm = append(norm, r/samples[i].scale)
				}
			}
		}
		return raw, norm
	}
	meanOrNaN := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		return stats.Mean(xs)
	}
	rlR, rlN := collect(func(s *evalSample) (float64, bool) { return s.rl, s.okRL })
	blR, blN := collect(func(s *evalSample) (float64, bool) { return s.bl, s.okBL })
	optR, optN := collect(func(s *evalSample) (float64, bool) { return s.opt, s.okOpt })
	res := EvalResult{RL: stats.Mean(rlR), Baseline: meanOrNaN(blR), Optimal: meanOrNaN(optR), HasNorm: h.sim.norm}
	if res.HasNorm {
		res.RLNorm, res.BaselineNorm, res.OptimalNorm = stats.Mean(rlN), meanOrNaN(blN), meanOrNaN(optN)
	}
	return res
}

// Snapshot implements Harness.
func (h *useCaseHarness[A, P]) Snapshot() Harness {
	cp := *h
	cp.Agent = h.Agent.Clone()
	return &cp
}

// runtime returns the agent's runtime attachments.
func (h *useCaseHarness[A, P]) runtime() *rl.Runtime {
	_, rt := h.sim.kind.parts(h.Agent)
	return rt
}

// SetMetrics implements MetricsSetter: per-iteration rewards flow from the
// harness, per-update losses from the agent, into the same registry.
func (h *useCaseHarness[A, P]) SetMetrics(m *metrics.Registry) {
	h.Metrics = m
	h.runtime().Metrics = m
}

// SetRecorder implements RecorderSetter.
func (h *useCaseHarness[A, P]) SetRecorder(r *obs.Recorder) {
	h.Recorder = r
	h.runtime().Recorder = r
}

// SetGuard implements GuardSetter.
func (h *useCaseHarness[A, P]) SetGuard(g *guard.Guard) { h.runtime().Guard = g }

// SetFaults implements FaultSetter.
func (h *useCaseHarness[A, P]) SetFaults(in *faults.Injector) { h.runtime().Faults = in }

// SaveAgentState implements AgentStateHarness.
func (h *useCaseHarness[A, P]) SaveAgentState(w io.Writer) error { return h.Agent.SaveState(w) }

// LoadAgentState implements AgentStateHarness.
func (h *useCaseHarness[A, P]) LoadAgentState(r io.Reader) error {
	return replaceAgent(&h.Agent, r, h.sim.kind)
}

// model and saveModel implement modelHarness.
func (h *useCaseHarness[A, P]) model() Agent                { return h.sim.kind.model(h.Agent) }
func (h *useCaseHarness[A, P]) saveModel(w io.Writer) error { return h.Agent.Save(w) }

// TrainTraditional is Algorithm 1: uniform sampling from the full space for
// the given number of iterations. It returns the training-reward curve.
func TrainTraditional(h Harness, iters int, rng *rand.Rand) []float64 {
	return h.Train(env.NewDistribution(h.Space()), iters, rng)
}

// EvalOverDistribution evaluates the harness's model on n configs sampled
// from dist (one environment each) and returns the per-config results.
func EvalOverDistribution(h Harness, dist *env.Distribution, n int, need EvalNeed, rng *rand.Rand) []EvalResult {
	out := make([]EvalResult, n)
	for i := range out {
		out[i] = h.Eval(dist.Sample(rng), 1, need, rng)
	}
	return out
}

// MeanGap estimates the expected gap-to-baseline of cfg over k environments
// (the CalcBaselineGap routine of Algorithm 2).
func MeanGap(h Harness, cfg env.Config, k int, rng *rand.Rand) float64 {
	return h.Eval(cfg, k, NeedBaseline, rng).GapToBaseline()
}

// nanGuard maps NaN to -inf so broken evaluations never win a search.
func nanGuard(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}
