package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/trace"
)

func init() {
	register("fig2", "RL vs rule-based baselines as the training range widens (RL1/RL2/RL3), all three use cases", runFig2)
	register("fig3", "generalization failures of synthetically- and cross-trained CC policies", runFig3)
	register("fig4", "adding trace set X vs Y to ABR training has opposite effects (with Fig 5 trace features)", runFig4)
}

// runFig2 reproduces Fig 2: traditional RL trained and tested on the same
// range loses its edge over rule-based baselines as the range widens (a),
// and loses outright on a growing fraction of environments (b).
func runFig2(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "fig2",
		Title:   "RL gain over baseline vs training-range width",
		Columns: []string{"rl_reward", "baseline_reward", "gain", "frac_worse_than_baseline"},
	}
	for _, uc := range []*core.UseCase{core.CC, core.ABR, core.LB} {
		for _, level := range []env.RangeLevel{env.RL1, env.RL2, env.RL3} {
			h, err := trainTraditionalLevel(uc, level, b, seed+int64(level))
			if err != nil {
				return nil, err
			}
			dist := env.NewDistribution(h.Space())
			evals := core.EvalOverDistribution(h, dist, b.testEnvs, core.NeedBaseline, rand.New(rand.NewSource(seed+99)))
			var rl, bl []float64
			for _, ev := range evals {
				rl = append(rl, ev.RL)
				bl = append(bl, ev.Baseline)
			}
			res.AddRow(fmt.Sprintf("%s-%s", uc, level),
				meanOf(rl), meanOf(bl), meanOf(rl)-meanOf(bl), fracWorse(rl, bl))
		}
	}
	res.Note("expected shape: gain shrinks and frac_worse grows from RL1 to RL3 within each use case")
	return res, nil
}

// runFig3 reproduces Fig 3: (a) a CC policy trained on the original
// synthetic ranges validates in-distribution but collapses against BBR on
// cellular/ethernet trace sets; (b) policies trained on one trace set
// degrade on the other.
func runFig3(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig3",
		Title:   "CC generalization: synthetic-trained and cross-trace-trained vs BBR",
		Columns: []string{"rl_reward", "bbr_reward"},
	}

	// (a) Synthetic-trained policy.
	synth, err := trainTraditionalLevel(core.CC, env.RL2, b, seed)
	if err != nil {
		return nil, err
	}
	dist := env.NewDistribution(synth.Space())
	evals := core.EvalOverDistribution(synth, dist, b.testEnvs, core.NeedBaseline, rand.New(rand.NewSource(seed+1)))
	var rl, bl []float64
	for _, ev := range evals {
		rl = append(rl, ev.RL)
		bl = append(bl, ev.Baseline)
	}
	res.AddRow("synthetic-trained/synthetic-test", meanOf(rl), meanOf(bl))

	mkSenders := func(h core.Harness) map[string]func() cc.Sender {
		agent := ccAgentOf(h).Agent
		return map[string]func() cc.Sender{
			"rl":  func() cc.Sender { return &cc.AgentSender{Agent: agent} },
			"bbr": func() cc.Sender { return cc.NewBBR() },
		}
	}
	for _, tc := range []struct {
		label string
		set   *trace.Set
	}{
		{"synthetic-trained/cellular-test", ts.cellularTest},
		{"synthetic-trained/ethernet-test", ts.ethernetTest},
	} {
		r := ccEvalTraces(mkSenders(synth), tc.set, seed+5)
		res.AddRow(tc.label, meanOf(r["rl"]), meanOf(r["bbr"]))
	}

	// (b) Cross-trace-set training.
	trainOn := func(set *trace.Set, s int64) (core.Harness, error) {
		rng := rand.New(rand.NewSource(s))
		h, err := b.harness(core.CC, env.RL2, rng)
		if err != nil {
			return nil, err
		}
		ch := ccAgentOf(h)
		ch.TraceSet = set
		ch.TraceProb = 1.0
		core.TrainTraditional(h, b.totalIters(), rng)
		return h, nil
	}
	cellTrained, err := trainOn(ts.cellularTrain, seed+11)
	if err != nil {
		return nil, err
	}
	ethTrained, err := trainOn(ts.ethernetTrain, seed+12)
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		label string
		h     core.Harness
		set   *trace.Set
	}{
		{"cellular-trained/ethernet-test", cellTrained, ts.ethernetTest},
		{"ethernet-trained/cellular-test", ethTrained, ts.cellularTest},
		{"cellular-trained/cellular-test", cellTrained, ts.cellularTest},
		{"ethernet-trained/ethernet-test", ethTrained, ts.ethernetTest},
	} {
		r := ccEvalTraces(mkSenders(tc.h), tc.set, seed+21)
		res.AddRow(tc.label, meanOf(r["rl"]), meanOf(r["bbr"]))
	}
	res.Note("expected shape: RL beats or tracks BBR in-distribution, falls behind out-of-distribution")
	return res, nil
}

// runFig4 reproduces the Fig 4/5 example: starting from a pretrained ABR
// model that is poor on both X and Y, adding Y (large, infrequent bandwidth
// swings) to training improves both sets, whereas adding X (small, frequent
// swings) barely helps X and hurts Y. Fig 5's trace features are emitted as
// extra rows.
func runFig4(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	space := env.ABRSpace(env.RL3)
	// §A.3: X = BW 0-5 Mbps changing every 0-2 s; Y = BW 0-10 Mbps
	// changing every 4-15 s. Config bandwidth floors keep the sim sane.
	defaults := env.ABRDefaults()
	cfgX := space.Default(defaults).
		With(env.ABRMaxBW, 5).With(env.ABRBWMinRatio, 0.1).With(env.ABRBWChangeInterval, 2)
	cfgY := space.Default(defaults).
		With(env.ABRMaxBW, 10).With(env.ABRBWMinRatio, 0.1).With(env.ABRBWChangeInterval, 10)

	rng := rand.New(rand.NewSource(seed))
	pre, err := b.harness(core.ABR, env.RL3, rng)
	if err != nil {
		return nil, err
	}
	// Pretrain briefly on the full range: poor on both X and Y.
	core.TrainTraditional(pre, b.warmup, rng)

	testOn := func(h core.Harness, cfg env.Config) float64 {
		ev := h.Eval(cfg, b.testEnvs/2+2, 0, rand.New(rand.NewSource(seed+500)))
		return ev.RL
	}
	res := &Result{
		ID:      "fig4",
		Title:   "effect of adding trace set X vs Y to ABR training",
		Columns: []string{"reward_on_X", "reward_on_Y"},
	}
	res.AddRow("pretrained", testOn(pre, cfgX), testOn(pre, cfgY))

	addAndTrain := func(cfg env.Config, s int64) (core.Harness, error) {
		h := pre.Snapshot()
		dist := env.NewDistribution(space)
		if err := dist.Promote(cfg, 0.5); err != nil {
			return nil, err
		}
		h.Train(dist, b.rounds*b.itersPerRound, rand.New(rand.NewSource(s)))
		return h, nil
	}
	withX, err := addAndTrain(cfgX, seed+1)
	if err != nil {
		return nil, err
	}
	withY, err := addAndTrain(cfgY, seed+2)
	if err != nil {
		return nil, err
	}
	res.AddRow("after-adding-X", testOn(withX, cfgX), testOn(withX, cfgY))
	res.AddRow("after-adding-Y", testOn(withY, cfgX), testOn(withY, cfgY))

	// Fig 5: contrast the two regimes' trace features.
	featRng := rand.New(rand.NewSource(seed + 7))
	trX, err := trace.GenerateABR(trace.ABRGenConfig{MinBW: 0.5, MaxBW: 5, ChangeInterval: 1, Duration: 60}, featRng)
	if err != nil {
		return nil, err
	}
	trY, err := trace.GenerateABR(trace.ABRGenConfig{MinBW: 1, MaxBW: 10, ChangeInterval: 10, Duration: 60}, featRng)
	if err != nil {
		return nil, err
	}
	fX, fY := trace.ExtractFeatures(trX), trace.ExtractFeatures(trY)
	res.Note("fig5 X trace: meanBW=%.2f Mbps, change every %.1fs, var=%.2f", fX.MeanBW, fX.ChangeInterval, fX.VarBW)
	res.Note("fig5 Y trace: meanBW=%.2f Mbps, change every %.1fs, var=%.2f", fY.MeanBW, fY.ChangeInterval, fY.VarBW)
	res.Note("expected shape: adding Y improves both columns; adding X helps X little and hurts Y")
	return res, nil
}
