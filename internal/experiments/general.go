package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

func init() {
	register("fig13", "generalization: synthetic-trained policies tested on the four trace sets", runFig13)
	register("fig14", "Genet trained against different rule-based baselines beats each of them (plus the naive-baseline ablation)", runFig14)
	register("fig15", "fraction of traces where each policy beats the rule-based baseline", runFig15)
	register("fig17", "reward-component frontier vs rule-based schemes (ABR and CC)", runFig17)
}

// runFig13 reproduces Fig 13: policies trained entirely on synthetic RL3
// environments, tested on trace-driven environments from the four Table 2
// sets.
func runFig13(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig13",
		Title:   "generalization from synthetic training to real-trace tests",
		Columns: []string{"test_reward"},
	}

	ccSuite, err := trainLevelSuite(core.CC, b, seed)
	if err != nil {
		return nil, err
	}
	ccSenders := map[string]func() cc.Sender{}
	for name, h := range ccSuite {
		agent := ccAgentOf(h).Agent
		ccSenders[name] = func() cc.Sender { return &cc.AgentSender{Agent: agent} }
	}
	ccSenders["BBR"] = func() cc.Sender { return cc.NewBBR() }
	for _, tc := range []struct {
		label string
		set   *trace.Set
	}{{"cellular", ts.cellularTest}, {"ethernet", ts.ethernetTest}} {
		r := ccEvalTraces(ccSenders, tc.set, seed+41)
		for _, name := range []string{"RL1", "RL2", "RL3", "Genet", "BBR"} {
			res.AddRow(fmt.Sprintf("cc-%s-%s", tc.label, name), meanOf(r[name]))
		}
	}

	abrSuite, err := trainLevelSuite(core.ABR, b, seed+1000)
	if err != nil {
		return nil, err
	}
	abrPolicies := map[string]abr.Policy{}
	for name, h := range abrSuite {
		abrPolicies[name] = &abr.AgentPolicy{Agent: abrAgentOf(h).Agent, Label: name}
	}
	abrPolicies["MPC"] = abr.NewRobustMPC()
	for _, tc := range []struct {
		label string
		set   *trace.Set
	}{{"fcc", ts.fccTest}, {"norway", ts.norwayTest}} {
		r := abrEvalTraces(abrPolicies, tc.set, seed+42)
		for _, name := range []string{"RL1", "RL2", "RL3", "Genet", "MPC"} {
			res.AddRow(fmt.Sprintf("abr-%s-%s", tc.label, name), meanOf(r[name]))
		}
	}
	res.Note("expected shape: Genet rows beat the RL1-3 rows on every trace set")
	return res, nil
}

// genetABRWithBaseline trains a Genet ABR policy guided by the given
// baseline factory.
func genetABRWithBaseline(b budget, seed int64, mk func() abr.Policy) (*core.ABRHarness, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := core.NewABRHarness(env.ABRSpace(env.RL3), rng)
	if err != nil {
		return nil, err
	}
	h.StepsPerIter = scaleSteps(400, b.stepMult)
	h.NewBaseline = mk
	if _, err := core.NewTrainer(h, b.genetOptions()).Run(rng); err != nil {
		return nil, err
	}
	return h, nil
}

// genetCCWithBaseline trains a Genet CC policy guided by the given baseline
// factory.
func genetCCWithBaseline(b budget, seed int64, mk func() cc.Sender) (*core.CCHarness, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := core.NewCCHarness(env.CCSpace(env.RL3), rng)
	if err != nil {
		return nil, err
	}
	h.StepsPerIter = scaleSteps(800, b.stepMult)
	h.NewBaseline = mk
	opts := b.genetOptions()
	opts.Objective = core.NormalizedGapObjective()
	if _, err := core.NewTrainer(h, opts).Run(rng); err != nil {
		return nil, err
	}
	return h, nil
}

// runFig14 reproduces Fig 14 plus the §5.4 naive-baseline ablation: Genet
// trained against MPC/BBA (ABR) and BBR/Cubic (CC) outperforms each
// baseline it was trained against; Genet guided by an absurd baseline
// degrades to roughly traditional-RL quality rather than collapsing.
func runFig14(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "fig14",
		Title:   "Genet vs the rule-based baseline used in its training",
		Columns: []string{"baseline_reward", "genet_reward"},
	}

	abrCases := []struct {
		label string
		mk    func() abr.Policy
	}{
		{"abr-MPC", func() abr.Policy { return abr.NewRobustMPC() }},
		{"abr-BBA", func() abr.Policy { return &abr.BBA{} }},
		{"abr-Naive", func() abr.Policy { return abr.Naive{} }},
	}
	for i, tc := range abrCases {
		h, err := genetABRWithBaseline(b, seed+int64(i), tc.mk)
		if err != nil {
			return nil, err
		}
		ev := averageEvals(h, b, seed+50)
		res.AddRow(tc.label, ev.Baseline, ev.RL)
	}

	ccCases := []struct {
		label string
		mk    func() cc.Sender
	}{
		{"cc-BBR", func() cc.Sender { return cc.NewBBR() }},
		{"cc-Cubic", func() cc.Sender { return cc.NewCubic() }},
	}
	for i, tc := range ccCases {
		h, err := genetCCWithBaseline(b, seed+100+int64(i), tc.mk)
		if err != nil {
			return nil, err
		}
		ev := averageEvals(h, b, seed+60)
		res.AddRow(tc.label, ev.Baseline, ev.RL)
	}
	res.Note("expected shape: genet_reward > baseline_reward on the MPC/BBA/BBR/Cubic rows")
	res.Note("abr-Naive: the baseline is absurd (top bitrate when stalling), so BO finds no useful envs and Genet degrades to ~traditional RL rather than failing")
	return res, nil
}

// averageEvals evaluates the harness's model and baseline over the full RL3
// distribution.
func averageEvals(h core.Harness, b budget, seed int64) core.EvalResult {
	dist := env.NewDistribution(h.Space())
	evals := core.EvalOverDistribution(h, dist, b.testEnvs, core.NeedBaseline, rand.New(rand.NewSource(seed)))
	var rl, bl []float64
	for _, ev := range evals {
		rl = append(rl, ev.RL)
		bl = append(bl, ev.Baseline)
	}
	return core.EvalResult{RL: meanOf(rl), Baseline: meanOf(bl)}
}

// runFig15 reproduces Fig 15: the fraction of test traces where the policy
// beats the rule-based baseline it was (or was not) trained against.
func runFig15(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig15",
		Title:   "fraction of traces where the policy beats the baseline",
		Columns: []string{"frac_beats_baseline"},
	}

	// ABR against MPC and BBA over FCC+Norway test traces.
	abrTest := &trace.Set{Name: "abr-test", Traces: append(append([]*trace.Trace{}, ts.fccTest.Traces...), ts.norwayTest.Traces...)}
	abrSuite, err := trainLevelSuite(core.ABR, b, seed)
	if err != nil {
		return nil, err
	}
	for _, baseCase := range []struct {
		label string
		mk    func() abr.Policy
	}{
		{"MPC", func() abr.Policy { return abr.NewRobustMPC() }},
		{"BBA", func() abr.Policy { return &abr.BBA{} }},
	} {
		genet, err := genetABRWithBaseline(b, seed+300, baseCase.mk)
		if err != nil {
			return nil, err
		}
		policies := map[string]abr.Policy{"baseline": baseCase.mk()}
		for name, h := range abrSuite {
			if name == "Genet" {
				continue // replaced by the baseline-specific Genet below
			}
			policies[name] = &abr.AgentPolicy{Agent: abrAgentOf(h).Agent, Label: name}
		}
		policies["Genet"] = &abr.AgentPolicy{Agent: genet.Agent, Label: "Genet"}
		r := abrEvalTraces(policies, abrTest, seed+44)
		for _, name := range []string{"RL1", "RL2", "RL3", "Genet"} {
			res.AddRow(fmt.Sprintf("abr-%s-vs-%s", name, baseCase.label), fracBeats(r[name], r["baseline"]))
		}
	}

	// CC against BBR and Cubic over Cellular+Ethernet test traces.
	ccTest := &trace.Set{Name: "cc-test", Traces: append(append([]*trace.Trace{}, ts.cellularTest.Traces...), ts.ethernetTest.Traces...)}
	ccSuite, err := trainLevelSuite(core.CC, b, seed+1)
	if err != nil {
		return nil, err
	}
	for _, baseCase := range []struct {
		label string
		mk    func() cc.Sender
	}{
		{"BBR", func() cc.Sender { return cc.NewBBR() }},
		{"Cubic", func() cc.Sender { return cc.NewCubic() }},
	} {
		genet, err := genetCCWithBaseline(b, seed+400, baseCase.mk)
		if err != nil {
			return nil, err
		}
		senders := map[string]func() cc.Sender{"baseline": baseCase.mk}
		for name, h := range ccSuite {
			if name == "Genet" {
				continue
			}
			agent := ccAgentOf(h).Agent
			senders[name] = func() cc.Sender { return &cc.AgentSender{Agent: agent} }
		}
		senders["Genet"] = func() cc.Sender { return &cc.AgentSender{Agent: genet.Agent} }
		r := ccEvalTraces(senders, ccTest, seed+45)
		for _, name := range []string{"RL1", "RL2", "RL3", "Genet"} {
			res.AddRow(fmt.Sprintf("cc-%s-vs-%s", name, baseCase.label), fracBeats(r[name], r["baseline"]))
		}
	}
	res.Note("expected shape: the Genet rows have markedly higher fractions than RL1-3 against their own baseline")
	return res, nil
}

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

// runFig17 reproduces Fig 17: the per-metric breakdown frontier. For ABR:
// mean bitrate vs 90th-percentile rebuffering ratio; for CC: mean
// throughput vs 90th-percentile latency; Genet should sit on the frontier.
func runFig17(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig17",
		Title:   "reward-component frontier on trace-driven tests",
		Columns: []string{"metric_a", "metric_b_p90", "reward"},
	}

	// ABR on FCC and Norway: metric_a = mean bitrate (Mbps), metric_b =
	// 90th percentile rebuffering ratio.
	abrSuite, err := trainLevelSuite(core.ABR, b, seed)
	if err != nil {
		return nil, err
	}
	abrCfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	abrPolicies := map[string]abr.Policy{
		"MPC": abr.NewRobustMPC(), "BBA": &abr.BBA{}, "RateBased": abr.RateBased{},
		"Oboe": abr.NewOboe(),
	}
	for name, h := range abrSuite {
		abrPolicies[name] = &abr.AgentPolicy{Agent: abrAgentOf(h).Agent, Label: name}
	}
	for _, tc := range []struct {
		label string
		set   *trace.Set
	}{{"fcc", ts.fccTest}, {"norway", ts.norwayTest}} {
		for _, name := range sortedKeys(abrPolicies) {
			var bitrates, rebufs, rewards []float64
			for i, tr := range tc.set.Traces {
				inst, err := abr.NewInstance(abrCfg, tr, rand.New(rand.NewSource(seed+int64(i))))
				if err != nil {
					continue
				}
				m := inst.Evaluate(abrPolicies[name])
				bitrates = append(bitrates, m.MeanBitrate)
				rebufs = append(rebufs, m.RebufferRatio)
				rewards = append(rewards, m.MeanReward)
			}
			if len(rebufs) == 0 {
				continue
			}
			res.AddRow(fmt.Sprintf("abr-%s-%s", tc.label, name),
				meanOf(bitrates), stats.Percentile(rebufs, 90), meanOf(rewards))
		}
	}

	// CC on Cellular and Ethernet: metric_a = mean throughput (Mbps),
	// metric_b = 90th percentile latency (s).
	ccSuite, err := trainLevelSuite(core.CC, b, seed+1)
	if err != nil {
		return nil, err
	}
	ccCfg := env.CCSpace(env.RL3).Default(env.CCDefaults())
	ccSenders := map[string]func() cc.Sender{
		"BBR": func() cc.Sender { return cc.NewBBR() }, "Cubic": func() cc.Sender { return cc.NewCubic() },
		"Vivace": func() cc.Sender { return cc.NewVivace() }, "Copa": func() cc.Sender { return cc.NewCopa() },
	}
	for name, h := range ccSuite {
		agent := ccAgentOf(h).Agent
		ccSenders[name] = func() cc.Sender { return &cc.AgentSender{Agent: agent} }
	}
	for _, tc := range []struct {
		label string
		set   *trace.Set
	}{{"cellular", ts.cellularTest}, {"ethernet", ts.ethernetTest}} {
		for _, name := range sortedKeys(ccSenders) {
			var tputs, lats, rewards []float64
			for i, tr := range tc.set.Traces {
				inst, err := cc.NewInstance(ccCfg, tr, rand.New(rand.NewSource(seed+int64(i))))
				if err != nil {
					continue
				}
				m := inst.Evaluate(ccSenders[name](), rand.New(rand.NewSource(seed+int64(i))))
				tputs = append(tputs, m.MeanThroughput)
				lats = append(lats, m.P90Latency)
				rewards = append(rewards, m.MeanReward)
			}
			if len(lats) == 0 {
				continue
			}
			res.AddRow(fmt.Sprintf("cc-%s-%s", tc.label, name),
				meanOf(tputs), stats.Percentile(lats, 90), meanOf(rewards))
		}
	}
	res.Note("expected shape: the Genet rows dominate or tie the frontier (high metric_a, low metric_b)")
	return res, nil
}
