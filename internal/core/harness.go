// Package core implements the Genet training framework (the paper's primary
// contribution): curriculum generation by Bayesian-optimization search for
// environment configurations where the current RL model has a large
// gap-to-baseline (Algorithm 2), the traditional uniform-sampling RL
// training it builds on (Algorithm 1), and the alternative curriculum
// strategies evaluated in §5.5 (CL1 hand-picked difficulty, CL2 baseline
// performance, CL3 gap-to-optimum, and the Robustify-style BO objective).
//
// The package is use-case agnostic: it drives any RL codebase through the
// two-call Train/Test abstraction of Fig 8, implemented for the three
// simulators in abr_harness.go, cc_harness.go, and lb_harness.go.
package core

import (
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
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

// SetHarnessMetrics attaches m to h when the harness supports telemetry;
// unknown harnesses are left untouched.
func SetHarnessMetrics(h Harness, m *metrics.Registry) {
	if s, ok := h.(MetricsSetter); ok {
		s.SetMetrics(m)
	}
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

// SetHarnessRecorder attaches the flight recorder on harnesses that
// support it.
func SetHarnessRecorder(h Harness, r *obs.Recorder) {
	if s, ok := h.(RecorderSetter); ok {
		s.SetRecorder(r)
	}
}

// SetHarnessGuard arms the watchdog on harnesses that support it.
func SetHarnessGuard(h Harness, g *guard.Guard) {
	if s, ok := h.(GuardSetter); ok {
		s.SetGuard(g)
	}
}

// SetHarnessFaults attaches the fault injector on harnesses that
// support it.
func SetHarnessFaults(h Harness, in *faults.Injector) {
	if s, ok := h.(FaultSetter); ok {
		s.SetFaults(in)
	}
}

// SetRecorder implements RecorderSetter.
func (h *ABRHarness) SetRecorder(r *obs.Recorder) {
	h.Recorder = r
	h.Agent.Recorder = r
}

// SetRecorder implements RecorderSetter.
func (h *LBHarness) SetRecorder(r *obs.Recorder) {
	h.Recorder = r
	h.Agent.Recorder = r
}

// SetRecorder implements RecorderSetter.
func (h *CCHarness) SetRecorder(r *obs.Recorder) {
	h.Recorder = r
	h.Agent.Recorder = r
}

// SetGuard implements GuardSetter.
func (h *ABRHarness) SetGuard(g *guard.Guard) { h.Agent.Guard = g }

// SetFaults implements FaultSetter.
func (h *ABRHarness) SetFaults(in *faults.Injector) { h.Agent.Faults = in }

// SetGuard implements GuardSetter.
func (h *LBHarness) SetGuard(g *guard.Guard) { h.Agent.Guard = g }

// SetFaults implements FaultSetter.
func (h *LBHarness) SetFaults(in *faults.Injector) { h.Agent.Faults = in }

// SetGuard implements GuardSetter.
func (h *CCHarness) SetGuard(g *guard.Guard) { h.Agent.Guard = g }

// SetFaults implements FaultSetter.
func (h *CCHarness) SetFaults(in *faults.Injector) { h.Agent.Faults = in }

// emitTrainIter streams one training-iteration reward sample; harness Train
// loops call it once per iteration. Telemetry is observation-only — it never
// draws from the training rng — so attaching a registry cannot change a run.
func emitTrainIter(m *metrics.Registry, iter int, reward float64) {
	if !m.Enabled() {
		return
	}
	m.Counter("train/iters").Inc()
	m.Gauge("train/last_reward").Set(reward)
	m.Emit("train/iter",
		metrics.F{K: "iter", V: float64(iter)},
		metrics.F{K: "reward", V: reward})
}

// endTrainIterSpan commits one train/iter span with its annotations;
// harness Train loops pair it with Recorder.Start("train/iter") around each
// TrainIterationVec call. The Enabled guard keeps the disabled path free of
// the variadic arg slice.
func endTrainIterSpan(rec *obs.Recorder, sp obs.Span, iter int, reward float64) {
	if !rec.Enabled() {
		return
	}
	sp.EndArgs(
		obs.Arg{K: "iter", V: float64(iter)},
		obs.Arg{K: "reward", V: reward})
}

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
