package experiments

import (
	"math/rand"
	"sort"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
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

func scaleSteps(base int, mult float64) int {
	n := int(float64(base) * mult)
	if n < 50 {
		n = 50
	}
	return n
}

// trainTraditional trains a traditional (Algorithm 1) policy over the given
// range level for iters iterations from seed and returns its harness. edit,
// when non-nil, adjusts the fresh harness first.
func trainTraditional(uc *core.UseCase, level env.RangeLevel, iters int, b budget, seed int64, edit func(core.Harness)) (core.Harness, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := b.harness(uc, level, rng)
	if err != nil {
		return nil, err
	}
	if edit != nil {
		edit(h)
	}
	core.TrainTraditional(h, iters, rng)
	return h, nil
}

// trainGenetWith trains a Genet policy over the full (RL3) space from seed
// and returns its harness. The options start from the budget's and the use
// case's Genet objective; edit, when non-nil, may adjust the fresh harness
// (baseline, ensemble, trace set) and the options first.
func trainGenetWith(uc *core.UseCase, b budget, seed int64, edit func(core.Harness, *core.Options)) (core.Harness, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := b.harness(uc, env.RL3, rng)
	if err != nil {
		return nil, err
	}
	opts := b.genetOptions()
	opts.Objective = uc.Genet
	if edit != nil {
		edit(h, &opts)
	}
	if _, err := core.NewTrainer(h, opts).Run(rng); err != nil {
		return nil, err
	}
	return h, nil
}

// mixTraces makes an abr or cc harness mix trace-driven environments from
// ts into training with probability p (§4.2).
func mixTraces(h core.Harness, ts *trace.Set, p float64) {
	switch h := h.(type) {
	case *core.ABRHarness:
		h.TraceSet, h.TraceProb = ts, p
	case *core.CCHarness:
		h.TraceSet, h.TraceProb = ts, p
	}
}

// testRewards evaluates h's model on n configurations drawn uniformly from
// its space, one environment each, from a stream seeded by seed. It returns
// the per-environment RL and baseline rewards; the baseline rewards are NaN
// unless need has core.NeedBaseline.
func testRewards(h core.Harness, n int, need core.EvalNeed, seed int64) (rl, bl []float64) {
	evals := core.EvalOverDistribution(h, env.NewDistribution(h.Space()), n, need, rand.New(rand.NewSource(seed)))
	for _, ev := range evals {
		rl = append(rl, ev.RL)
		bl = append(bl, ev.Baseline)
	}
	return rl, bl
}

// testReward is the mean of testRewards' RL rewards.
func testReward(h core.Harness, n int, seed int64) float64 {
	rl, _ := testRewards(h, n, 0, seed)
	return meanOf(rl)
}

// evalSuite evaluates several harnesses' models on the same sequence of
// (config, instance) draws from dist and returns per-name reward samples
// plus the baseline samples of the first harness by name. Instances are
// paired across harnesses via per-index seeds.
func evalSuite(hs map[string]core.Harness, dist *env.Distribution, n int, seed int64) (rewards map[string][]float64, baseline []float64) {
	cfgRng := rand.New(rand.NewSource(seed))
	rewards = make(map[string][]float64, len(hs))
	names := sortedKeys(hs)
	for i := 0; i < n; i++ {
		cfg := dist.Sample(cfgRng)
		instSeed := cfgRng.Int63()
		for j, name := range names {
			need := core.EvalNeed(0)
			if j == 0 {
				need = core.NeedBaseline
			}
			ev := hs[name].Eval(cfg, 1, need, rand.New(rand.NewSource(instSeed)))
			rewards[name] = append(rewards[name], ev.RL)
			if j == 0 {
				baseline = append(baseline, ev.Baseline)
			}
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
	// abr and cc join FCC+Norway and Cellular+Ethernet, the sets Figs 12
	// and 15 train and test each use case on.
	abrTrain, abrTest, ccTrain, ccTest *trace.Set
}

func makeTraceSets(b budget, seed int64) *traceSets {
	rng := rand.New(rand.NewSource(seed))
	ts := &traceSets{}
	ts.fccTrain, ts.fccTest = trace.GenerateTrainTest(trace.SpecFCC, b.traceScale, rng)
	ts.norwayTrain, ts.norwayTest = trace.GenerateTrainTest(trace.SpecNorway, b.traceScale, rng)
	ts.ethernetTrain, ts.ethernetTest = trace.GenerateTrainTest(trace.SpecEthernet, b.traceScale, rng)
	ts.cellularTrain, ts.cellularTest = trace.GenerateTrainTest(trace.SpecCellular, b.traceScale, rng)
	join := func(name string, a, b *trace.Set) *trace.Set {
		return &trace.Set{Name: name, Traces: append(append([]*trace.Trace{}, a.Traces...), b.Traces...)}
	}
	ts.abrTrain, ts.abrTest = join("abr-train", ts.fccTrain, ts.norwayTrain), join("abr-test", ts.fccTest, ts.norwayTest)
	ts.ccTrain, ts.ccTest = join("cc-train", ts.cellularTrain, ts.ethernetTrain), join("cc-test", ts.cellularTest, ts.ethernetTest)
	return ts
}

// namedSet is a test trace set and its row label.
type namedSet struct {
	label string
	set   *trace.Set
}

// tests returns the use case's two held-out trace sets (abr: FCC and
// Norway; cc: Cellular and Ethernet).
func (ts *traceSets) tests(uc *core.UseCase) []namedSet {
	if uc == core.ABR {
		return []namedSet{{"fcc", ts.fccTest}, {"norway", ts.norwayTest}}
	}
	return []namedSet{{"cellular", ts.cellularTest}, {"ethernet", ts.ethernetTest}}
}

// episode is one policy's test episode on one trace: its mean reward and
// the two reward components Fig 17 plots (abr: mean bitrate and
// rebuffering ratio; cc: mean throughput and p90 latency).
type episode struct{ reward, a, b float64 }

// tracePolicy runs one test episode of a policy on trace tr. The rest of the
// environment (non-bandwidth parameters at Table 3/4 defaults) comes from a
// stream seeded by seed.
type tracePolicy func(tr *trace.Trace, seed int64) (episode, error)

// abrPolicy is the trace test of p.
func abrPolicy(p abr.Policy) tracePolicy {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	return func(tr *trace.Trace, seed int64) (episode, error) {
		inst, err := abr.NewInstance(cfg, tr, rand.New(rand.NewSource(seed)))
		if err != nil {
			return episode{}, err
		}
		m := inst.Evaluate(p)
		return episode{m.MeanReward, m.MeanBitrate, m.RebufferRatio}, nil
	}
}

// ccPolicy is the trace test of the senders mk makes, a fresh one per
// episode. It seeds the sender's noise from the instance stream, or with
// noiseFromSeed from seed itself (Fig 17's pairing).
func ccPolicy(mk func() cc.Sender, noiseFromSeed bool) tracePolicy {
	cfg := env.CCSpace(env.RL3).Default(env.CCDefaults())
	return func(tr *trace.Trace, seed int64) (episode, error) {
		rng := rand.New(rand.NewSource(seed))
		inst, err := cc.NewInstance(cfg, tr, rng)
		if err != nil {
			return episode{}, err
		}
		if !noiseFromSeed {
			seed = rng.Int63()
		}
		m := inst.Evaluate(mk(), rand.New(rand.NewSource(seed)))
		return episode{m.MeanReward, m.MeanThroughput, m.P90Latency}, nil
	}
}

// ruleBased is a rule-based abr or cc scheme in the two forms the runners
// use: an edit that makes it a fresh harness's baseline, and its trace test.
type ruleBased struct {
	label string
	uc    *core.UseCase
	set   func(core.Harness)
	test  tracePolicy
}

func abrRuleBased(label string, mk func() abr.Policy) ruleBased {
	return ruleBased{label, core.ABR, func(h core.Harness) { h.(*core.ABRHarness).NewBaseline = mk }, abrPolicy(mk())}
}

func ccRuleBased(label string, mk func() cc.Sender) ruleBased {
	return ruleBased{label, core.CC, func(h core.Harness) { h.(*core.CCHarness).NewBaseline = mk }, ccPolicy(mk, false)}
}

// modelPolicy is the trace test of an abr or cc harness's model;
// noiseFromSeed applies to cc as in ccPolicy.
func modelPolicy(h core.Harness, noiseFromSeed bool) tracePolicy {
	a := core.AgentOf(h)
	if a.Gaussian != nil {
		return ccPolicy(func() cc.Sender { return &cc.AgentSender{Agent: a.Gaussian} }, noiseFromSeed)
	}
	return abrPolicy(&abr.AgentPolicy{Agent: a.Discrete})
}

// onTraces runs every policy on each trace of set, paired per trace: trace
// i's episodes use seed+i. A trace whose environment cannot be built is
// skipped.
func onTraces(policies map[string]tracePolicy, set *trace.Set, seed int64) map[string][]episode {
	out := make(map[string][]episode, len(policies))
	for name, run := range policies {
		for i, tr := range set.Traces {
			if ep, err := run(tr, seed+int64(i)); err == nil {
				out[name] = append(out[name], ep)
			}
		}
	}
	return out
}

// rewardsOf returns the episodes' rewards.
func rewardsOf(eps []episode) []float64 {
	out := make([]float64, len(eps))
	for i, e := range eps {
		out[i] = e.reward
	}
	return out
}

// meanOf is a tiny alias for readability in runners.
func meanOf(xs []float64) float64 { return stats.Mean(xs) }

// fracBeats returns the fraction of indices where policy > baseline (Fig
// 15; Fig 2(b) swaps the arguments).
func fracBeats(policy, baseline []float64) float64 {
	n := min(len(policy), len(baseline))
	if n == 0 {
		return 0
	}
	c := 0
	for i := 0; i < n; i++ {
		if policy[i] > baseline[i] {
			c++
		}
	}
	return float64(c) / float64(n)
}
