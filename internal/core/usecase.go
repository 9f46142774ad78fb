package core

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

// UseCase describes one of the RL applications of Table 1: everything the
// CLIs, the fleet, the experiments and the policy server need to know about
// it. UseCases is the one table of them; a new use case is one row here,
// its useCaseSim beside the row (training vec env and paired evaluation of
// one environment), plus its simulator package.
type UseCase struct {
	// Name is the canonical lower-case name.
	Name string
	// Space returns the Tables 3-5 configuration space at a range level;
	// Defaults returns the parameter defaults trace-driven tests pin.
	Space    func(env.RangeLevel) *env.Space
	Defaults func() map[string]float64
	// TraceDriven reports whether environments can replay a bandwidth
	// trace (§4.2); a harness's TraceSet applies only when it is set.
	TraceDriven bool
	// StepsPerIter is the harness's default environment steps per
	// training iteration.
	StepsPerIter int
	// Baselines names the rule-based baselines NewHarness accepts; the
	// first is the harness default.
	Baselines []string
	// Genet and CL3 are the gap-to-baseline and gap-to-optimum promotion
	// objectives. CC's are normalized: its rewards scale with link
	// bandwidth (see cc.RewardScale).
	Genet, CL3 Objective
	// ObsSize is the observation vector length.
	ObsSize int
	// Discrete or Gaussian (exactly one is set) is the agent architecture
	// a model.bin holds for this use case.
	Discrete *rl.DiscreteConfig
	Gaussian *rl.GaussianConfig
	// NewDiscreteEnv or NewContinuousEnv (whichever matches the agent)
	// samples a fresh scalar environment from the level's space: the use
	// case's RLEnv, a width-1 slot view of its VecEnv (the training
	// dynamics), whose returned observation is rewritten by the next
	// Reset or Step.
	NewDiscreteEnv   func(env.RangeLevel, *rand.Rand) rl.DiscreteEnv
	NewContinuousEnv func(env.RangeLevel, *rand.Rand) rl.ContinuousEnv
	// Fallback is the rule-based decision for one ObsSize observation: a
	// discrete action, or -1 and an action vector.
	Fallback func(obs []float64) (action int, vec []float64)

	// sim is the use case's part of the Harness implementation; compare
	// builds genet-eval's test.
	sim     harnessSim
	compare func(Agent) PolicyRewards
}

// harnessSim is a useCaseSim with its agent and baseline types erased.
type harnessSim interface {
	newHarness(u *UseCase, space *env.Space, baseline string, envs, steps int, rng *rand.Rand) (Harness, error)
}

// Agent is a loaded model.bin policy: exactly one field is set, matching
// the use case's action space.
type Agent struct {
	Discrete *rl.DiscreteAgent
	Gaussian *rl.GaussianAgent
}

// PolicyRewards evaluates a model and the use case's rule-based schemes on
// one test environment drawn from cfg, replaying tr when it is non-nil, and
// returns each policy's mean reward by name ("model" for the model). abr
// and cc seed the instance and its noise from seed; lb draws both from
// rng. A configuration that fails to materialize yields no rewards.
type PolicyRewards func(cfg env.Config, tr *trace.Trace, seed int64, rng *rand.Rand) map[string]float64

// The use cases of Table 1.
var (
	ABR = &UseCase{
		Name:         "abr",
		Space:        env.ABRSpace,
		Defaults:     env.ABRDefaults,
		TraceDriven:  true,
		StepsPerIter: 400,
		Baselines:    []string{"mpc", "bba"},
		Genet:        GapToBaselineObjective(),
		CL3:          GapToOptimumObjective(),
		ObsSize:      abr.ObsSize,
		Discrete:     discreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)),
		NewDiscreteEnv: func(level env.RangeLevel, rng *rand.Rand) rl.DiscreteEnv {
			return abr.NewRLEnv(abr.GenFromConfig(env.ABRSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return abr.Fallback(obs), nil },
		sim:      abrSim,
		compare: func(a Agent) PolicyRewards {
			policies := map[string]abr.Policy{
				"model":     &abr.AgentPolicy{Agent: a.Discrete, Label: "model"},
				"RobustMPC": abr.NewRobustMPC(),
				"BBA":       &abr.BBA{},
				"RateBased": abr.RateBased{},
			}
			return func(cfg env.Config, tr *trace.Trace, seed int64, _ *rand.Rand) map[string]float64 {
				inst, err := abr.NewInstance(cfg, tr, rand.New(rand.NewSource(seed)))
				if err != nil {
					return nil
				}
				out := make(map[string]float64, len(policies))
				for name, p := range policies {
					out[name] = inst.Evaluate(p).MeanReward
				}
				return out
			}
		},
	}
	CC = &UseCase{
		Name:         "cc",
		Space:        env.CCSpace,
		Defaults:     env.CCDefaults,
		TraceDriven:  true,
		StepsPerIter: 800,
		Baselines:    []string{"bbr", "cubic"},
		Genet:        NormalizedGapObjective(),
		CL3:          NormalizedOptGapObjective(),
		ObsSize:      cc.ObsSize,
		Gaussian:     gaussianConfig(cc.ObsSize, 1),
		NewContinuousEnv: func(level env.RangeLevel, rng *rand.Rand) rl.ContinuousEnv {
			return cc.NewRLEnv(cc.GenFromConfig(env.CCSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return -1, []float64{cc.Fallback(obs)} },
		sim:      ccSim,
		compare: func(a Agent) PolicyRewards {
			senders := map[string]func() cc.Sender{
				"model":  func() cc.Sender { return &cc.AgentSender{Agent: a.Gaussian} },
				"BBR":    func() cc.Sender { return cc.NewBBR() },
				"Cubic":  func() cc.Sender { return cc.NewCubic() },
				"Vivace": func() cc.Sender { return cc.NewVivace() },
			}
			return func(cfg env.Config, tr *trace.Trace, seed int64, _ *rand.Rand) map[string]float64 {
				inst, err := cc.NewInstance(cfg, tr, rand.New(rand.NewSource(seed)))
				if err != nil {
					return nil
				}
				out := make(map[string]float64, len(senders))
				for name, mk := range senders {
					out[name] = inst.Evaluate(mk(), rand.New(rand.NewSource(seed))).MeanReward
				}
				return out
			}
		},
	}
	LB = &UseCase{
		Name:         "lb",
		Space:        env.LBSpace,
		Defaults:     env.LBDefaults,
		StepsPerIter: 600,
		Baselines:    []string{"llf"},
		Genet:        GapToBaselineObjective(),
		CL3:          GapToOptimumObjective(),
		ObsSize:      lb.ObsSize,
		Discrete:     discreteConfig(lb.ObsSize, lb.NumServers),
		NewDiscreteEnv: func(level env.RangeLevel, rng *rand.Rand) rl.DiscreteEnv {
			return lb.NewRLEnv(lb.GenFromConfig(env.LBSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return lb.Fallback(obs), nil },
		sim:      lbSim,
		compare: func(a Agent) PolicyRewards {
			policies := map[string]func() lb.Policy{
				"model":      func() lb.Policy { return &lb.AgentPolicy{Agent: a.Discrete, Label: "model"} },
				"LLF":        func() lb.Policy { return lb.LLF{} },
				"RoundRobin": func() lb.Policy { return &lb.RoundRobin{} },
			}
			return func(cfg env.Config, _ *trace.Trace, _ int64, rng *rand.Rand) map[string]float64 {
				e, err := lb.NewEnvFromConfig(cfg, rng)
				if err != nil {
					return nil
				}
				noiseSeed := rng.Int63()
				out := make(map[string]float64, len(policies))
				for name, mk := range policies {
					if m, err := e.Run(mk(), rand.New(rand.NewSource(noiseSeed))); err == nil {
						out[name] = m.MeanReward
					}
				}
				return out
			}
		},
	}
)

// Each use case's part of the one Harness implementation: the agent it
// trains, its named baselines, its training vec env and its paired
// evaluation of one environment.

// ABRHarness adapts the adaptive-bitrate use case (Pensieve-style A3C
// training) to the Fig 8 Train/Test interface.
type ABRHarness = useCaseHarness[*rl.DiscreteAgent, abr.Policy]

// NewABRHarness builds a harness over the given configuration space with a
// freshly initialized agent. RobustMPC is the default baseline.
func NewABRHarness(space *env.Space, rng *rand.Rand) (*ABRHarness, error) {
	return abrSim.harness(ABR, space, rng)
}

var abrSim = &useCaseSim[*rl.DiscreteAgent, abr.Policy]{
	kind: discreteKind,
	newAgent: func(rng *rand.Rand) (*rl.DiscreteAgent, error) {
		cfg := rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps))
		// ABR training rewards are normalized to roughly [-5, 2] (see
		// abr.TrainReward); the entropy bonus shrinks proportionally so the
		// exploration pressure matches the unnormalized default.
		cfg.Entropy = 0.04
		return rl.NewDiscreteAgent(cfg, rng)
	},
	baselines: map[string]func() abr.Policy{
		"mpc": func() abr.Policy { return abr.NewRobustMPC() },
		"bba": func() abr.Policy { return &abr.BBA{} },
	},
	envsPerIter: 8,
	evalSeeds:   1,
	vecEnv: func(dist *env.Distribution, ts *trace.Set, traceProb float64, width int) trainIter[*rl.DiscreteAgent] {
		return discreteIter(abr.NewVecEnv(abr.GenFromDistribution(dist, ts, traceProb), width))
	},
	eval: func(h *ABRHarness, cfg env.Config, need EvalNeed, seeds [2]int64) (s evalSample) {
		inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(seeds[0])))
		if err != nil {
			return s
		}
		s.rl, s.okRL = inst.Evaluate(&abr.AgentPolicy{Agent: h.Agent}).MeanReward, true
		if need&NeedBaseline != 0 {
			s.bl, s.okBL = h.baseline(func(p abr.Policy) (float64, bool) { return inst.Evaluate(p).MeanReward, true })
		}
		if need&NeedOptimal != 0 {
			s.opt, s.okOpt = inst.EvaluateOmniscient().MeanReward, true
		}
		return s
	},
}

// CCHarness adapts the congestion-control use case (Aurora-style PPO
// training) to the Fig 8 Train/Test interface.
type CCHarness = useCaseHarness[*rl.GaussianAgent, cc.Sender]

// NewCCHarness builds a harness over the given configuration space with a
// freshly initialized agent and BBR as the default baseline.
func NewCCHarness(space *env.Space, rng *rand.Rand) (*CCHarness, error) {
	return ccSim.harness(CC, space, rng)
}

var ccSim = &useCaseSim[*rl.GaussianAgent, cc.Sender]{
	kind: gaussianKind,
	newAgent: func(rng *rand.Rand) (*rl.GaussianAgent, error) {
		return rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
	},
	baselines: map[string]func() cc.Sender{
		"bbr":   func() cc.Sender { return cc.NewBBR() },
		"cubic": func() cc.Sender { return cc.NewCubic() },
	},
	envsPerIter: 4,
	evalSeeds:   2,
	norm:        true,
	vecEnv: func(dist *env.Distribution, ts *trace.Set, traceProb float64, width int) trainIter[*rl.GaussianAgent] {
		return gaussianIter(cc.NewVecEnv(cc.GenFromDistribution(dist, ts, traceProb), width))
	},
	eval: func(h *CCHarness, cfg env.Config, need EvalNeed, seeds [2]int64) (s evalSample) {
		inst, err := cc.NewInstance(cfg, nil, rand.New(rand.NewSource(seeds[0])))
		if err != nil {
			return s
		}
		noise := func() *rand.Rand { return rand.New(rand.NewSource(seeds[1])) }
		s.scale = cc.RewardScale(inst.Trace.Mean())
		s.rl, s.okRL = inst.Evaluate(&cc.AgentSender{Agent: h.Agent}, noise()).MeanReward, true
		if need&NeedBaseline != 0 {
			s.bl, s.okBL = h.baseline(func(p cc.Sender) (float64, bool) { return inst.Evaluate(p, noise()).MeanReward, true })
		}
		if need&NeedOptimal != 0 {
			s.opt, s.okOpt = inst.EvaluateOracle(noise()).MeanReward, true
		}
		return s
	},
}

// LBHarness adapts the load-balancing use case (Park-style training) to
// the Fig 8 Train/Test interface.
type LBHarness = useCaseHarness[*rl.DiscreteAgent, lb.Policy]

// NewLBHarness builds a harness over the given configuration space with a
// freshly initialized agent and LLF as the default baseline.
func NewLBHarness(space *env.Space, rng *rand.Rand) (*LBHarness, error) {
	return lbSim.harness(LB, space, rng)
}

var lbSim = &useCaseSim[*rl.DiscreteAgent, lb.Policy]{
	kind: discreteKind,
	newAgent: func(rng *rand.Rand) (*rl.DiscreteAgent, error) {
		return rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(lb.ObsSize, lb.NumServers), rng)
	},
	baselines:   map[string]func() lb.Policy{"llf": func() lb.Policy { return lb.LLF{} }},
	envsPerIter: 4,
	evalSeeds:   2,
	vecEnv: func(dist *env.Distribution, _ *trace.Set, _ float64, width int) trainIter[*rl.DiscreteAgent] {
		return discreteIter(lb.NewVecEnv(lb.GenFromDistribution(dist), width))
	},
	// Every policy runs independently: one whose run fails drops out of its
	// own mean only.
	eval: func(h *LBHarness, cfg env.Config, need EvalNeed, seeds [2]int64) (s evalSample) {
		e, err := lb.NewEnvFromConfig(cfg, rand.New(rand.NewSource(seeds[0])))
		if err != nil {
			return s
		}
		run := func(p lb.Policy) (float64, bool) {
			m, err := e.Run(p, rand.New(rand.NewSource(seeds[1])))
			return m.MeanReward, err == nil
		}
		if s.rl, s.okRL = run(&lb.AgentPolicy{Agent: h.Agent}); !s.okRL {
			return evalSample{}
		}
		if need&NeedBaseline != 0 {
			s.bl, s.okBL = h.baseline(run)
		}
		if need&NeedOptimal != 0 {
			if rates, err := lb.OracleRatesFor(e); err == nil {
				s.opt, s.okOpt = run(&lb.Oracle{Rates: rates})
			}
		}
		return s
	},
}

// UseCases is the table of use cases, in the order the repository lists
// them.
var UseCases = []*UseCase{ABR, CC, LB}

func discreteConfig(obsSize, numActions int) *rl.DiscreteConfig {
	c := rl.DefaultDiscreteConfig(obsSize, numActions)
	return &c
}

func gaussianConfig(obsSize, actionDim int) *rl.GaussianConfig {
	c := rl.DefaultGaussianConfig(obsSize, actionDim)
	return &c
}

// LookupUseCase returns the use case named name, ignoring case.
func LookupUseCase(name string) (*UseCase, error) {
	for _, u := range UseCases {
		if strings.EqualFold(name, u.Name) {
			return u, nil
		}
	}
	names := make([]string, len(UseCases))
	for i, u := range UseCases {
		names[i] = u.Name
	}
	return nil, fmt.Errorf("unknown use case %q (want %s)", name, strings.Join(names, "|"))
}

// String returns the use case's name.
func (u *UseCase) String() string { return u.Name }

// NewHarness builds a harness with a freshly initialized agent over the
// use case's space at level. baseline is one of Baselines, or "" for the
// default; envs and steps size each training iteration (0 keeps the
// harness default).
func (u *UseCase) NewHarness(level env.RangeLevel, baseline string, envs, steps int, rng *rand.Rand) (Harness, error) {
	baseline = strings.ToLower(baseline)
	if baseline != "" && !slices.Contains(u.Baselines, baseline) {
		return nil, fmt.Errorf("unknown %s baseline %q (want %s)", u.Name, baseline, strings.Join(u.Baselines, "|"))
	}
	return u.sim.newHarness(u, u.Space(level), baseline, envs, steps, rng)
}

// ParseStrategy resolves a training strategy name (genet|rl1|rl2|rl3|cl2|cl3,
// any case): the range level its harness trains over and whether it is a
// curriculum strategy (Algorithm 2, with checkpoint safe points) rather
// than a traditional one (Algorithm 1).
func ParseStrategy(name string) (level env.RangeLevel, curriculum bool, err error) {
	switch strings.ToLower(name) {
	case "genet", "cl2", "cl3":
		return env.RL3, true, nil
	}
	if level, err = env.ParseRangeLevel(name); err != nil {
		return 0, false, fmt.Errorf("unknown strategy %q (want genet|rl1|rl2|rl3|cl2|cl3)", name)
	}
	return level, false, nil
}

// Strategy resolves a training strategy for the use case: the range level
// its harness trains over and, for the curriculum strategies (genet, cl2,
// cl3), the promotion objective. Traditional strategies (rl1-rl3) get the
// zero Objective.
func (u *UseCase) Strategy(name string) (env.RangeLevel, Objective, error) {
	level, curriculum, err := ParseStrategy(name)
	if err != nil || !curriculum {
		return level, Objective{}, err
	}
	switch strings.ToLower(name) {
	case "cl2":
		return level, BaselinePerfObjective(), nil
	case "cl3":
		return level, u.CL3, nil
	}
	return level, u.Genet, nil
}

// LoadAgent reads a model.bin written by SaveModel, checking its
// architecture against the use case's.
func (u *UseCase) LoadAgent(r io.Reader) (Agent, error) {
	if u.Discrete != nil {
		a, err := rl.LoadDiscreteAgent(*u.Discrete, r)
		return Agent{Discrete: a}, err
	}
	a, err := rl.LoadGaussianAgent(*u.Gaussian, r)
	return Agent{Gaussian: a}, err
}

// Compare returns the paired test genet-eval runs: the model against the
// use case's rule-based schemes.
func (u *UseCase) Compare(a Agent) PolicyRewards { return u.compare(a) }

// modelHarness is implemented by the one Harness implementation.
type modelHarness interface {
	model() Agent
	saveModel(w io.Writer) error
}

// AgentOf returns the policy of a harness built by NewHarness or one of
// the New*Harness constructors, or the zero Agent for any other harness.
func AgentOf(h Harness) Agent {
	if m, ok := h.(modelHarness); ok {
		return m.model()
	}
	return Agent{}
}

// SaveModel writes the policy of a harness built by NewHarness as a
// model.bin: the agent's weights, without optimizer state.
func SaveModel(h Harness, w io.Writer) error {
	if m, ok := h.(modelHarness); ok {
		return m.saveModel(w)
	}
	return fmt.Errorf("core: cannot save a model from harness type %T", h)
}
