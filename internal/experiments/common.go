package experiments

import (
	"math/rand"
	"sort"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/fleet"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// budget bundles the per-scale knobs every experiment shares: the training
// budget every strategy gets (Genet's, and by core.Options.TraditionalIters
// the equal budget of rl1-rl3) and the test-time sizes.
type budget struct {
	fleet.Budget
	testEnvs   int     // environments per test-time comparison
	stepMult   float64 // multiplier on harness default steps/iteration
	traceScale float64 // fraction of Table 2 trace counts to synthesize
}

func budgetFor(scale Scale) budget {
	// Warm-up gets twice a round's iterations: the paper warms up for 10
	// of its (7200-step) iterations before the first promotion; at this
	// repository's smaller step counts a proportionally longer warm-up is
	// required before the first BO search sees a sane model, otherwise
	// early promotions chase the weaknesses of a random policy.
	switch scale {
	case CI:
		return budget{Budget: fleet.Budget{Warmup: 20, Rounds: 5, ItersPerRound: 8, BOSteps: 10, EnvsPerEval: 4},
			testEnvs: 50, stepMult: 1, traceScale: 0.2}
	case Full:
		return budget{Budget: fleet.Budget{Warmup: 20, Rounds: 9, ItersPerRound: 10, BOSteps: 15, EnvsPerEval: 10},
			testEnvs: 200, stepMult: 2, traceScale: 1}
	default:
		return budget{Budget: fleet.Budget{Warmup: 8, Rounds: 2, ItersPerRound: 4, BOSteps: 4, EnvsPerEval: 2},
			testEnvs: 10, stepMult: 0.5, traceScale: 0.04}
	}
}

// fleetBudget is the training budget for uc, its steps per iteration
// scaled by stepMult.
func (b budget) fleetBudget(uc *core.UseCase) fleet.Budget {
	fb := b.Budget
	fb.StepsPerIter = max(int(float64(uc.StepsPerIter)*b.stepMult), 50)
	return fb
}

// harness constructs a fresh, untrained harness for uc over its full
// (RL3) space, sized like the ones train builds.
func (b budget) harness(uc *core.UseCase, rng *rand.Rand) (core.Harness, error) {
	return uc.NewHarness(env.RL3, "", 0, b.fleetBudget(uc).StepsPerIter, rng)
}

// train trains uc under strategy mode (genet|rl1|rl2|rl3|cl2|cl3) from seed
// with fleet.TrainSpec, the one training driver, and returns its harness.
// edit, when non-nil, is the spec's Edit.
func (b budget) train(uc *core.UseCase, mode string, seed int64, edit func(core.Harness, *core.Options)) (core.Harness, error) {
	tr, err := (&fleet.TrainSpec{Env: uc.Name, Mode: mode, Seed: seed, Budget: b.fleetBudget(uc), Edit: edit}).Train()
	if err != nil {
		return nil, err
	}
	return tr.Harness, nil
}

// pretrain trains uc over the full range for the warm-up alone: the
// mid-training model Figs 4, 6 and 20 start from.
func (b budget) pretrain(uc *core.UseCase, seed int64) (core.Harness, error) {
	w := b
	w.Budget = fleet.Budget{Rounds: 1, ItersPerRound: b.Warmup, Warmup: -1}
	return w.train(uc, "rl3", seed, nil)
}

// mixTraces is the edit that makes an abr or cc harness mix trace-driven
// environments from ts into training with probability p (§4.2).
func mixTraces(ts *trace.Set, p float64) func(core.Harness, *core.Options) {
	return func(h core.Harness, _ *core.Options) {
		switch h := h.(type) {
		case *core.ABRHarness:
			h.TraceSet, h.TraceProb = ts, p
		case *core.CCHarness:
			h.TraceSet, h.TraceProb = ts, p
		}
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
	set   func(core.Harness, *core.Options)
	test  tracePolicy
}

func abrRuleBased(label string, mk func() abr.Policy) ruleBased {
	return ruleBased{label, core.ABR, func(h core.Harness, _ *core.Options) { h.(*core.ABRHarness).NewBaseline = mk }, abrPolicy(mk())}
}

func ccRuleBased(label string, mk func() cc.Sender) ruleBased {
	return ruleBased{label, core.CC, func(h core.Harness, _ *core.Options) { h.(*core.CCHarness).NewBaseline = mk }, ccPolicy(mk, false)}
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
