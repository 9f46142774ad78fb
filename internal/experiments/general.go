package experiments

import (
	"fmt"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
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
	for _, half := range []struct {
		seed, testSeed int64
		base           ruleBased
	}{
		{0, 41, ccRuleBased("BBR", func() cc.Sender { return cc.NewBBR() })},
		{1000, 42, abrRuleBased("MPC", func() abr.Policy { return abr.NewRobustMPC() })},
	} {
		suite, err := trainLevelSuite(half.base.uc, b, seed+half.seed)
		if err != nil {
			return nil, err
		}
		policies := map[string]tracePolicy{half.base.label: half.base.test}
		for name, h := range suite {
			policies[name] = modelPolicy(h, false)
		}
		for _, ns := range ts.tests(half.base.uc) {
			r := onTraces(policies, ns.set, seed+half.testSeed)
			for _, name := range []string{"RL1", "RL2", "RL3", "Genet", half.base.label} {
				res.AddRow(fmt.Sprintf("%s-%s-%s", half.base.uc, ns.label, name), meanOf(rewardsOf(r[name])))
			}
		}
	}
	res.Note("expected shape: Genet rows beat the RL1-3 rows on every trace set")
	return res, nil
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
	for _, tc := range []struct {
		base           ruleBased
		seed, testSeed int64
	}{
		{abrRuleBased("abr-MPC", func() abr.Policy { return abr.NewRobustMPC() }), 0, 50},
		{abrRuleBased("abr-BBA", func() abr.Policy { return &abr.BBA{} }), 1, 50},
		{abrRuleBased("abr-Naive", func() abr.Policy { return abr.Naive{} }), 2, 50},
		{ccRuleBased("cc-BBR", func() cc.Sender { return cc.NewBBR() }), 100, 60},
		{ccRuleBased("cc-Cubic", func() cc.Sender { return cc.NewCubic() }), 101, 60},
	} {
		h, err := b.train(tc.base.uc, "genet", seed+tc.seed, tc.base.set)
		if err != nil {
			return nil, err
		}
		rl, bl := testRewards(h, b.testEnvs, core.NeedBaseline, seed+tc.testSeed)
		res.AddRow(tc.base.label, meanOf(bl), meanOf(rl))
	}
	res.Note("expected shape: genet_reward > baseline_reward on the MPC/BBA/BBR/Cubic rows")
	res.Note("abr-Naive: the baseline is absurd (top bitrate when stalling), so BO finds no useful envs and Genet degrades to ~traditional RL rather than failing")
	return res, nil
}

// runFig15 reproduces Fig 15: the fraction of test traces where the policy
// beats the rule-based baseline it was (or was not) trained against: ABR
// against MPC and BBA over FCC+Norway, CC against BBR and Cubic over
// Cellular+Ethernet.
func runFig15(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig15",
		Title:   "fraction of traces where the policy beats the baseline",
		Columns: []string{"frac_beats_baseline"},
	}
	for _, half := range []struct {
		uc                        *core.UseCase
		seed, genetSeed, testSeed int64
		test                      *trace.Set
		bases                     []ruleBased
	}{
		{core.ABR, 0, 300, 44, ts.abrTest, []ruleBased{
			abrRuleBased("MPC", func() abr.Policy { return abr.NewRobustMPC() }),
			abrRuleBased("BBA", func() abr.Policy { return &abr.BBA{} }),
		}},
		{core.CC, 1, 400, 45, ts.ccTest, []ruleBased{
			ccRuleBased("BBR", func() cc.Sender { return cc.NewBBR() }),
			ccRuleBased("Cubic", func() cc.Sender { return cc.NewCubic() }),
		}},
	} {
		suite, err := trainLevelSuite(half.uc, b, seed+half.seed)
		if err != nil {
			return nil, err
		}
		for _, base := range half.bases {
			// The suite's Genet is replaced by one trained against base.
			genet, err := b.train(half.uc, "genet", seed+half.genetSeed, base.set)
			if err != nil {
				return nil, err
			}
			policies := map[string]tracePolicy{"baseline": base.test, "Genet": modelPolicy(genet, false)}
			for _, name := range []string{"RL1", "RL2", "RL3"} {
				policies[name] = modelPolicy(suite[name], false)
			}
			r := onTraces(policies, half.test, seed+half.testSeed)
			for _, name := range []string{"RL1", "RL2", "RL3", "Genet"} {
				res.AddRow(fmt.Sprintf("%s-%s-vs-%s", half.uc, name, base.label), fracBeats(rewardsOf(r[name]), rewardsOf(r["baseline"])))
			}
		}
	}
	res.Note("expected shape: the Genet rows have markedly higher fractions than RL1-3 against their own baseline")
	return res, nil
}

// runFig17 reproduces Fig 17: the per-metric breakdown frontier on the
// held-out trace sets. For ABR: mean bitrate (Mbps) vs 90th-percentile
// rebuffering ratio; for CC: mean throughput (Mbps) vs 90th-percentile
// latency (s); Genet should sit on the frontier.
func runFig17(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig17",
		Title:   "reward-component frontier on trace-driven tests",
		Columns: []string{"metric_a", "metric_b_p90", "reward"},
	}
	// The CC episodes seed their noise from the trace's seed itself.
	for _, half := range []struct {
		uc       *core.UseCase
		seed     int64
		policies map[string]tracePolicy
	}{
		{core.ABR, 0, map[string]tracePolicy{
			"MPC": abrPolicy(abr.NewRobustMPC()), "BBA": abrPolicy(&abr.BBA{}),
			"RateBased": abrPolicy(abr.RateBased{}), "Oboe": abrPolicy(abr.NewOboe()),
		}},
		{core.CC, 1, map[string]tracePolicy{
			"BBR": ccPolicy(func() cc.Sender { return cc.NewBBR() }, true), "Cubic": ccPolicy(func() cc.Sender { return cc.NewCubic() }, true),
			"Vivace": ccPolicy(func() cc.Sender { return cc.NewVivace() }, true), "Copa": ccPolicy(func() cc.Sender { return cc.NewCopa() }, true),
		}},
	} {
		suite, err := trainLevelSuite(half.uc, b, seed+half.seed)
		if err != nil {
			return nil, err
		}
		for name, h := range suite {
			half.policies[name] = modelPolicy(h, true)
		}
		for _, ns := range ts.tests(half.uc) {
			r := onTraces(half.policies, ns.set, seed)
			for _, name := range sortedKeys(half.policies) {
				if len(r[name]) == 0 {
					continue
				}
				var as, bs, rs []float64
				for _, e := range r[name] {
					as, bs, rs = append(as, e.a), append(bs, e.b), append(rs, e.reward)
				}
				res.AddRow(fmt.Sprintf("%s-%s-%s", half.uc, ns.label, name), meanOf(as), stats.Percentile(bs, 90), meanOf(rs))
			}
		}
	}
	res.Note("expected shape: the Genet rows dominate or tie the frontier (high metric_a, low metric_b)")
	return res, nil
}
