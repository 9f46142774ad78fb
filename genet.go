// Package genet is the public facade of the Genet reproduction: automatic
// curriculum generation for reinforcement-learning-based network adaptation
// (Xia, Zhou, Yan, Jiang — SIGCOMM 2022).
//
// The facade re-exports the pieces a downstream user needs to train and
// evaluate curriculum-guided RL policies for the three use cases the paper
// studies — adaptive bitrate streaming (ABR), congestion control (CC), and
// load balancing (LB) — without reaching into the internal packages:
//
//	rng := rand.New(rand.NewSource(1))
//	h, _ := genet.NewABRHarness(genet.ABRSpace(genet.RL3), rng)
//	report, _ := genet.NewTrainer(h, genet.Options{}).Run(rng)
//
// See the examples directory for complete programs and cmd/genet-bench for
// the harness that regenerates every table and figure of the paper.
package genet

import (
	"math/rand"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/trace"
)

// Curriculum training (internal/core).
type (
	// Harness is the Fig 8 Train/Test abstraction over an RL codebase.
	Harness = core.Harness
	// Options configure the Genet trainer (Algorithm 2).
	Options = core.Options
	// Trainer runs the curriculum loop.
	Trainer = core.Trainer
	// Report is the outcome of a curriculum run.
	Report = core.Report
	// RoundReport records one curriculum round.
	RoundReport = core.RoundReport
	// Objective is a promotion criterion for the environment search.
	Objective = core.Objective
	// EvalResult carries paired evaluation rewards.
	EvalResult = core.EvalResult
	// EvalNeed selects which reference policies an evaluation runs.
	EvalNeed = core.EvalNeed
	// ABRHarness adapts the adaptive-bitrate use case.
	ABRHarness = core.ABRHarness
	// CCHarness adapts the congestion-control use case.
	CCHarness = core.CCHarness
	// LBHarness adapts the load-balancing use case.
	LBHarness = core.LBHarness
	// HeuristicSchedule is a CL1 hand-picked curriculum; set it on
	// Options.Schedule to promote its configurations instead of searching.
	HeuristicSchedule = core.HeuristicSchedule
	// CheckpointOptions configure crash-safe checkpointing of a run.
	CheckpointOptions = core.CheckpointOptions
	// AgentStateHarness is implemented by harnesses whose full agent
	// training state (weights and optimizer moments) can be captured and
	// restored losslessly.
	AgentStateHarness = core.AgentStateHarness
	// RecoveryEvent records one guard intervention during training.
	RecoveryEvent = core.RecoveryEvent
	// Guard is the training-health watchdog (NaN/divergence detection,
	// quarantine and rollback policy); set it on Options.Guard.
	Guard = guard.Guard
	// GuardConfig tunes the watchdog's thresholds.
	GuardConfig = guard.Config
	// GuardStats are the watchdog's intervention counters.
	GuardStats = guard.Stats
	// FaultInjector deterministically injects faults for chaos testing;
	// set it on Options.Faults.
	FaultInjector = faults.Injector
	// FaultSite identifies one fault-injection site.
	FaultSite = faults.Site
	// Rand is a *rand.Rand whose stream position is serializable, for use
	// with checkpointed runs.
	Rand = ckpt.Rand
	// RandState is the persisted position of a Rand stream.
	RandState = ckpt.RandState
)

// Evaluation need flags.
const (
	NeedBaseline = core.NeedBaseline
	NeedOptimal  = core.NeedOptimal
)

// Fault-injection sites.
const (
	FaultEnvStepPanic = faults.EnvStepPanic
	FaultGradPoison   = faults.GradPoison
	FaultTraceCorrupt = faults.TraceCorrupt
	FaultBOQueryFail  = faults.BOQueryFail
	FaultCkptWrite    = faults.CkptWriteFail
)

// NewGuard builds a training-health watchdog with the given thresholds; a
// zero config enables only NaN/Inf detection.
func NewGuard(cfg GuardConfig) *Guard { return guard.New(cfg) }

// NewFaultInjector builds a seeded deterministic fault injector with every
// site disabled; arm sites with Enable.
func NewFaultInjector(seed int64) *FaultInjector { return faults.New(seed) }

// ParseFaultSpec builds an injector from a "site:everyN,..." spec string
// (e.g. "grad-nan:50,bo-query:10", or "all:100").
func ParseFaultSpec(seed int64, spec string) (*FaultInjector, error) {
	return faults.ParseSpec(seed, spec)
}

// NewTrainer builds a Genet trainer; zero-valued options take the
// Algorithm 2 defaults (9 rounds, 10 iterations/round, 15 BO steps, k=10,
// w=0.3).
func NewTrainer(h Harness, opts Options) *Trainer { return core.NewTrainer(h, opts) }

// NewABRHarness builds the adaptive-bitrate harness (A3C-style agent,
// RobustMPC baseline) over the given configuration space.
func NewABRHarness(space *Space, rng *rand.Rand) (*ABRHarness, error) {
	return core.NewABRHarness(space, rng)
}

// NewCCHarness builds the congestion-control harness (PPO agent, BBR
// baseline).
func NewCCHarness(space *Space, rng *rand.Rand) (*CCHarness, error) {
	return core.NewCCHarness(space, rng)
}

// NewLBHarness builds the load-balancing harness (A3C-style agent, LLF
// baseline).
func NewLBHarness(space *Space, rng *rand.Rand) (*LBHarness, error) {
	return core.NewLBHarness(space, rng)
}

// TrainTraditional runs Algorithm 1: uniform environment sampling with no
// curriculum, for the equal budget opts.TraditionalIters() of a curriculum
// run with the same options (warm-up plus Rounds × ItersPerRound), calling
// opts.AfterRound after the warm-up and after every round.
func TrainTraditional(h Harness, opts Options, rng *rand.Rand) []float64 {
	return core.TrainTraditional(h, opts, rng)
}

// NewRand returns a seeded Rand whose stream position is serializable, so a
// checkpoint captures exactly where the run's random stream stands.
func NewRand(seed int64) *Rand { return ckpt.NewRand(seed) }

// RestoreRand rebuilds a Rand positioned exactly where st was captured.
func RestoreRand(st RandState) *Rand { return ckpt.RestoreRand(st) }

// ResumeTrainer builds a trainer over h and opts and continues the run
// stored in the checkpoint at path, checkpointing onward per co. The
// returned report covers the whole run, including rounds completed before
// the interruption.
func ResumeTrainer(h Harness, opts Options, path string, co CheckpointOptions) (*Report, error) {
	return core.ResumeTrainer(h, opts, path, co)
}

// GapToBaselineObjective is Genet's promotion criterion.
func GapToBaselineObjective() Objective { return core.GapToBaselineObjective() }

// GapToOptimumObjective is the Strawman-3 / CL3 criterion.
func GapToOptimumObjective() Objective { return core.GapToOptimumObjective() }

// BaselinePerfObjective is the CL2 criterion (baseline difficulty).
func BaselinePerfObjective() Objective { return core.BaselinePerfObjective() }

// Environment configuration (internal/env).
type (
	// Space is an ordered set of environment parameter dimensions.
	Space = env.Space
	// Dimension is one named parameter with a range.
	Dimension = env.Dimension
	// Config is a point in a Space.
	Config = env.Config
	// Distribution is the curriculum mixture over configurations.
	Distribution = env.Distribution
	// RangeLevel selects the RL1/RL2/RL3 nested training ranges.
	RangeLevel = env.RangeLevel
)

// Nested training ranges of Tables 3-5.
const (
	RL1 = env.RL1
	RL2 = env.RL2
	RL3 = env.RL3
)

// NewSpace builds a configuration space from dimensions.
func NewSpace(dims ...Dimension) (*Space, error) { return env.NewSpace(dims...) }

// NewDistribution returns the uniform distribution over space.
func NewDistribution(space *Space) *Distribution { return env.NewDistribution(space) }

// ABRSpace returns the Table 3 ABR configuration space at a range level.
func ABRSpace(level RangeLevel) *Space { return env.ABRSpace(level) }

// CCSpace returns the Table 4 CC configuration space at a range level.
func CCSpace(level RangeLevel) *Space { return env.CCSpace(level) }

// LBSpace returns the Table 5 LB configuration space at a range level.
func LBSpace(level RangeLevel) *Space { return env.LBSpace(level) }

// ABRDefaults returns the Table 3 default parameter values.
func ABRDefaults() map[string]float64 { return env.ABRDefaults() }

// CCDefaults returns the Table 4 default parameter values.
func CCDefaults() map[string]float64 { return env.CCDefaults() }

// LBDefaults returns the Table 5 default parameter values.
func LBDefaults() map[string]float64 { return env.LBDefaults() }

// Bandwidth traces (internal/trace).
type (
	// Trace is a bandwidth time series.
	Trace = trace.Trace
	// TraceSet is a named collection of traces.
	TraceSet = trace.Set
	// TraceSetSpec describes a synthetic trace-set regime.
	TraceSetSpec = trace.SetSpec
)

// Table 2 stand-in trace-set specs.
var (
	SpecFCC      = trace.SpecFCC
	SpecNorway   = trace.SpecNorway
	SpecEthernet = trace.SpecEthernet
	SpecCellular = trace.SpecCellular
)

// GenerateTraceSet synthesizes count traces following spec's regime.
func GenerateTraceSet(spec TraceSetSpec, count int, rng *rand.Rand) *TraceSet {
	return trace.GenerateSet(spec, count, rng)
}
