package experiments

import (
	"math/rand"
	"sort"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// budget bundles the per-scale knobs every experiment shares.
type budget struct {
	warmup        int // uniform-distribution iterations before promotions
	rounds        int // curriculum rounds
	itersPerRound int
	boSteps       int
	envsPerEval   int     // k environments per gap estimate
	testEnvs      int     // environments per test-time comparison
	stepMult      float64 // multiplier on harness default steps/iteration
	traceScale    float64 // fraction of Table 2 trace counts to synthesize
}

func budgetFor(scale Scale) budget {
	// Warm-up gets twice a round's iterations: the paper warms up for 10
	// of its (7200-step) iterations before the first promotion; at this
	// repository's smaller step counts a proportionally longer warm-up is
	// required before the first BO search sees a sane model, otherwise
	// early promotions chase the weaknesses of a random policy.
	switch scale {
	case CI:
		return budget{warmup: 20, rounds: 5, itersPerRound: 8, boSteps: 10,
			envsPerEval: 4, testEnvs: 50, stepMult: 1, traceScale: 0.2}
	case Full:
		return budget{warmup: 20, rounds: 9, itersPerRound: 10, boSteps: 15,
			envsPerEval: 10, testEnvs: 200, stepMult: 2, traceScale: 1}
	default:
		return budget{warmup: 8, rounds: 2, itersPerRound: 4, boSteps: 4,
			envsPerEval: 2, testEnvs: 10, stepMult: 0.5, traceScale: 0.04}
	}
}

// totalIters is the iteration budget a traditional-RL run gets so that
// Genet-vs-traditional comparisons are equal-budget.
func (b budget) totalIters() int { return b.warmup + b.rounds*b.itersPerRound }

// genetOptions maps the budget onto Algorithm 2 options.
func (b budget) genetOptions() core.Options {
	return core.Options{
		Rounds:        b.rounds,
		ItersPerRound: b.itersPerRound,
		BOSteps:       b.boSteps,
		EnvsPerEval:   b.envsPerEval,
		WarmupIters:   b.warmup,
	}
}

// harness constructs a fresh harness for a use case over its space at
// level, with the steps per iteration scaled by the budget.
func (b budget) harness(uc *core.UseCase, level env.RangeLevel, rng *rand.Rand) (core.Harness, error) {
	return uc.NewHarness(level, "", 0, scaleSteps(uc.StepsPerIter, b.stepMult), rng)
}

// abrHarness and ccHarness are harness with the concrete type, for callers
// that set a trace set or an ensemble.
func (b budget) abrHarness(rng *rand.Rand) (*core.ABRHarness, error) {
	h, err := core.NewABRHarness(core.ABR.Space(env.RL3), rng)
	if err == nil {
		h.StepsPerIter = scaleSteps(core.ABR.StepsPerIter, b.stepMult)
	}
	return h, err
}

func (b budget) ccHarness(level env.RangeLevel, rng *rand.Rand) (*core.CCHarness, error) {
	h, err := core.NewCCHarness(core.CC.Space(level), rng)
	if err == nil {
		h.StepsPerIter = scaleSteps(core.CC.StepsPerIter, b.stepMult)
	}
	return h, err
}

func scaleSteps(base int, mult float64) int {
	n := int(float64(base) * mult)
	if n < 50 {
		n = 50
	}
	return n
}

// trainTraditionalLevel trains a traditional (Algorithm 1) policy over the
// given range level and returns its harness.
func trainTraditionalLevel(uc *core.UseCase, level env.RangeLevel, b budget, seed int64) (core.Harness, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := b.harness(uc, level, rng)
	if err != nil {
		return nil, err
	}
	core.TrainTraditional(h, b.totalIters(), rng)
	return h, nil
}

// trainGenet trains a Genet policy over the full (RL3) space and returns the
// harness and curriculum report.
func trainGenet(uc *core.UseCase, b budget, seed int64) (core.Harness, *core.Report, error) {
	return trainGenetWith(uc, b, core.Options{}, seed)
}

// trainGenetWith is trainGenet with option overrides (objective, searcher);
// zero-valued fields fall back to the budget's defaults and the use case's
// Genet objective.
func trainGenetWith(uc *core.UseCase, b budget, override core.Options, seed int64) (core.Harness, *core.Report, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := b.harness(uc, env.RL3, rng)
	if err != nil {
		return nil, nil, err
	}
	opts := b.genetOptions()
	opts.Objective = uc.Genet
	if override.Objective.Score != nil {
		opts.Objective = override.Objective
	}
	opts.Search = override.Search
	if override.Rounds > 0 {
		opts.Rounds = override.Rounds
	}
	if override.ItersPerRound > 0 {
		opts.ItersPerRound = override.ItersPerRound
	}
	rep, err := core.NewTrainer(h, opts).Run(rng)
	if err != nil {
		return nil, nil, err
	}
	return h, rep, nil
}

// evalSuite evaluates several harnesses' models on the same sequence of
// (config, instance) draws from dist and returns per-name mean-reward
// samples plus the baseline samples from the first harness that computes
// them. Instances are paired across harnesses via per-index seeds.
func evalSuite(hs map[string]core.Harness, dist *env.Distribution, n int, seed int64, withBaseline bool) (rewards map[string][]float64, baseline []float64) {
	cfgRng := rand.New(rand.NewSource(seed))
	rewards = make(map[string][]float64, len(hs))
	names := sortedKeys(hs)
	for i := 0; i < n; i++ {
		cfg := dist.Sample(cfgRng)
		instSeed := cfgRng.Int63()
		first := true
		for _, name := range names {
			need := core.EvalNeed(0)
			if withBaseline && first {
				need = core.NeedBaseline
			}
			ev := hs[name].Eval(cfg, 1, need, rand.New(rand.NewSource(instSeed)))
			rewards[name] = append(rewards[name], ev.RL)
			if withBaseline && first {
				baseline = append(baseline, ev.Baseline)
			}
			first = false
		}
	}
	return rewards, baseline
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// traceSets synthesizes the four Table 2 stand-in sets at budget scale and
// splits them per the table.
type traceSets struct {
	fccTrain, fccTest           *trace.Set
	norwayTrain, norwayTest     *trace.Set
	ethernetTrain, ethernetTest *trace.Set
	cellularTrain, cellularTest *trace.Set
}

func makeTraceSets(b budget, seed int64) *traceSets {
	rng := rand.New(rand.NewSource(seed))
	ts := &traceSets{}
	ts.fccTrain, ts.fccTest = trace.GenerateTrainTest(trace.SpecFCC, b.traceScale, rng)
	ts.norwayTrain, ts.norwayTest = trace.GenerateTrainTest(trace.SpecNorway, b.traceScale, rng)
	ts.ethernetTrain, ts.ethernetTest = trace.GenerateTrainTest(trace.SpecEthernet, b.traceScale, rng)
	ts.cellularTrain, ts.cellularTest = trace.GenerateTrainTest(trace.SpecCellular, b.traceScale, rng)
	return ts
}

// abrEvalTraces evaluates a set of ABR policies over every trace in set
// (non-bandwidth parameters at Table 3 defaults) and returns per-policy
// mean-reward samples. Policies are paired per trace.
func abrEvalTraces(policies map[string]abr.Policy, set *trace.Set, seed int64) map[string][]float64 {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	out := make(map[string][]float64, len(policies))
	names := sortedKeys(policies)
	for i, tr := range set.Traces {
		instRng := rand.New(rand.NewSource(seed + int64(i)))
		inst, err := abr.NewInstance(cfg, tr, instRng)
		if err != nil {
			continue
		}
		for _, name := range names {
			out[name] = append(out[name], inst.Evaluate(policies[name]).MeanReward)
		}
	}
	return out
}

// ccEvalTraces evaluates a set of CC senders over every trace in set
// (non-bandwidth parameters at Table 4 defaults) with shared noise seeds.
func ccEvalTraces(senders map[string]func() cc.Sender, set *trace.Set, seed int64) map[string][]float64 {
	cfg := env.CCSpace(env.RL3).Default(env.CCDefaults())
	out := make(map[string][]float64, len(senders))
	names := sortedKeys(senders)
	for i, tr := range set.Traces {
		instRng := rand.New(rand.NewSource(seed + int64(i)))
		inst, err := cc.NewInstance(cfg, tr, instRng)
		if err != nil {
			continue
		}
		noiseSeed := instRng.Int63()
		for _, name := range names {
			m := inst.Evaluate(senders[name](), rand.New(rand.NewSource(noiseSeed)))
			out[name] = append(out[name], m.MeanReward)
		}
	}
	return out
}

// lbEvalConfigs evaluates LB policies over n workloads drawn from cfg with
// paired noise seeds.
func lbEvalConfigs(policies map[string]func(e *lb.Env) lb.Policy, cfg env.Config, n int, seed int64) map[string][]float64 {
	out := make(map[string][]float64, len(policies))
	names := sortedKeys(policies)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		e, err := lb.NewEnvFromConfig(cfg, rng)
		if err != nil {
			continue
		}
		noiseSeed := rng.Int63()
		for _, name := range names {
			m, err := e.Run(policies[name](e), rand.New(rand.NewSource(noiseSeed)))
			if err != nil {
				continue
			}
			out[name] = append(out[name], m.MeanReward)
		}
	}
	return out
}

// meanOf is a tiny alias for readability in runners.
func meanOf(xs []float64) float64 { return stats.Mean(xs) }

// fracWorse returns the fraction of indices where policy < baseline (the
// Fig 2(b) metric).
func fracWorse(policy, baseline []float64) float64 {
	n := min(len(policy), len(baseline))
	if n == 0 {
		return 0
	}
	c := 0
	for i := 0; i < n; i++ {
		if policy[i] < baseline[i] {
			c++
		}
	}
	return float64(c) / float64(n)
}
