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
// it. UseCases is the one table of them; a new use case is one row here
// plus its simulator package.
type UseCase struct {
	// Name is the canonical lower-case name.
	Name string
	// Space returns the Tables 3-5 configuration space at a range level;
	// Defaults returns the parameter defaults trace-driven tests pin.
	Space    func(env.RangeLevel) *env.Space
	Defaults func() map[string]float64
	// TraceDriven reports whether environments can replay a bandwidth
	// trace (§4.2).
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

	// newHarness builds the harness and returns pointers to its
	// EnvsPerIter and StepsPerIter; compare builds genet-eval's test.
	newHarness func(space *env.Space, baseline string, rng *rand.Rand) (Harness, *int, *int, error)
	compare    func(Agent) PolicyRewards
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
		StepsPerIter: abrStepsPerIter,
		Baselines:    []string{"mpc", "bba"},
		Genet:        GapToBaselineObjective(),
		CL3:          GapToOptimumObjective(),
		ObsSize:      abr.ObsSize,
		Discrete:     discreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)),
		NewDiscreteEnv: func(level env.RangeLevel, rng *rand.Rand) rl.DiscreteEnv {
			return abr.NewRLEnv(abr.GenFromConfig(env.ABRSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return abr.Fallback(obs), nil },
		newHarness: func(space *env.Space, baseline string, rng *rand.Rand) (Harness, *int, *int, error) {
			h, err := NewABRHarness(space, rng)
			if err != nil {
				return nil, nil, nil, err
			}
			if baseline == "bba" {
				h.NewBaseline = func() abr.Policy { return &abr.BBA{} }
			}
			return h, &h.EnvsPerIter, &h.StepsPerIter, nil
		},
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
		StepsPerIter: ccStepsPerIter,
		Baselines:    []string{"bbr", "cubic"},
		Genet:        NormalizedGapObjective(),
		CL3:          NormalizedOptGapObjective(),
		ObsSize:      cc.ObsSize,
		Gaussian:     gaussianConfig(cc.ObsSize, 1),
		NewContinuousEnv: func(level env.RangeLevel, rng *rand.Rand) rl.ContinuousEnv {
			return cc.NewRLEnv(cc.GenFromConfig(env.CCSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return -1, []float64{cc.Fallback(obs)} },
		newHarness: func(space *env.Space, baseline string, rng *rand.Rand) (Harness, *int, *int, error) {
			h, err := NewCCHarness(space, rng)
			if err != nil {
				return nil, nil, nil, err
			}
			if baseline == "cubic" {
				h.NewBaseline = func() cc.Sender { return cc.NewCubic() }
			}
			return h, &h.EnvsPerIter, &h.StepsPerIter, nil
		},
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
		StepsPerIter: lbStepsPerIter,
		Baselines:    []string{"llf"},
		Genet:        GapToBaselineObjective(),
		CL3:          GapToOptimumObjective(),
		ObsSize:      lb.ObsSize,
		Discrete:     discreteConfig(lb.ObsSize, lb.NumServers),
		NewDiscreteEnv: func(level env.RangeLevel, rng *rand.Rand) rl.DiscreteEnv {
			return lb.NewRLEnv(lb.GenFromConfig(env.LBSpace(level).Sample(rng)))
		},
		Fallback: func(obs []float64) (int, []float64) { return lb.Fallback(obs), nil },
		newHarness: func(space *env.Space, _ string, rng *rand.Rand) (Harness, *int, *int, error) {
			h, err := NewLBHarness(space, rng)
			if err != nil {
				return nil, nil, nil, err
			}
			return h, &h.EnvsPerIter, &h.StepsPerIter, nil
		},
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
	h, envsPerIter, stepsPerIter, err := u.newHarness(u.Space(level), baseline, rng)
	if err != nil {
		return nil, err
	}
	if envs > 0 {
		*envsPerIter = envs
	}
	if steps > 0 {
		*stepsPerIter = steps
	}
	return h, nil
}

// Strategy resolves a training strategy for the use case: the range level
// its harness trains over and, for the curriculum strategies (genet, cl2,
// cl3), the promotion objective. Traditional strategies (rl1-rl3) get the
// zero Objective.
func (u *UseCase) Strategy(name string) (env.RangeLevel, Objective, error) {
	switch strings.ToLower(name) {
	case "genet":
		return env.RL3, u.Genet, nil
	case "cl2":
		return env.RL3, BaselinePerfObjective(), nil
	case "cl3":
		return env.RL3, u.CL3, nil
	}
	level, err := env.ParseRangeLevel(name)
	if err != nil {
		return 0, Objective{}, fmt.Errorf("unknown strategy %q (want genet|rl1|rl2|rl3|cl2|cl3)", name)
	}
	return level, Objective{}, nil
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

// SaveModel writes the policy of a harness built by NewHarness as a
// model.bin: the agent's weights, without optimizer state.
func SaveModel(h Harness, w io.Writer) error {
	switch hh := h.(type) {
	case *ABRHarness:
		return hh.Agent.Save(w)
	case *CCHarness:
		return hh.Agent.Save(w)
	case *LBHarness:
		return hh.Agent.Save(w)
	}
	return fmt.Errorf("core: cannot save a model from harness type %T", h)
}
