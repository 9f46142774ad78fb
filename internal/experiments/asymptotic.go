package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/trace"
)

func init() {
	register("fig9", "Genet vs RL1/RL2/RL3 on the full synthetic range, all three use cases", runFig9)
	register("fig10", "ABR reward sweeps along six environment parameters (Genet vs RL1-3)", runFig10)
	register("fig11", "LB reward sweeps along job size and interval (Genet vs RL1-3)", runFig11)
	register("fig12", "trace+synthetic training mixtures vs Genet (ABR and CC)", runFig12)
}

// trainLevelSuite trains the RL1/RL2/RL3 traditional policies plus Genet for
// one use case.
func trainLevelSuite(uc *core.UseCase, b budget, seed int64) (map[string]core.Harness, error) {
	hs := make(map[string]core.Harness, 4)
	for _, level := range []env.RangeLevel{env.RL1, env.RL2, env.RL3} {
		h, err := trainTraditionalLevel(uc, level, b, seed+int64(level))
		if err != nil {
			return nil, err
		}
		hs[level.String()] = h
	}
	g, _, err := trainGenet(uc, b, seed+7)
	if err != nil {
		return nil, err
	}
	hs["Genet"] = g
	return hs, nil
}

// runFig9 reproduces Fig 9: with the target distribution set to the full
// RL3 ranges, Genet-trained policies beat all three traditionally trained
// policies across CC, ABR, and LB. Results average over multiple training
// seeds (the paper trains three seeds per policy) at the larger scales.
func runFig9(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	nSeeds := map[Scale]int{Smoke: 1, CI: 2, Full: 3}[scale]
	res := &Result{
		ID:      "fig9",
		Title:   "asymptotic performance on the full synthetic range",
		Columns: []string{"test_reward"},
	}
	for _, uc := range []*core.UseCase{core.CC, core.ABR, core.LB} {
		acc := map[string][]float64{}
		var blAcc []float64
		for s := 0; s < nSeeds; s++ {
			hs, err := trainLevelSuite(uc, b, seed+int64(1000*s))
			if err != nil {
				return nil, err
			}
			dist := env.NewDistribution(uc.Space(env.RL3))
			rewards, baseline := evalSuite(hs, dist, b.testEnvs, seed+100, true)
			for name, rs := range rewards {
				acc[name] = append(acc[name], meanOf(rs))
			}
			blAcc = append(blAcc, meanOf(baseline))
		}
		for _, name := range []string{"RL1", "RL2", "RL3", "Genet"} {
			res.AddRow(fmt.Sprintf("%s-%s", uc, name), meanOf(acc[name]))
		}
		res.AddRow(fmt.Sprintf("%s-baseline", uc), meanOf(blAcc))
	}
	res.Note("averaged over %d training seed(s)", nSeeds)
	res.Note("expected shape: within each use case, Genet > max(RL1,RL2,RL3); paper reports 8-25%% (ABR), 14-24%% (CC), 15%% (LB)")
	return res, nil
}

// sweepPoint holds one x-axis position of a Fig 10/11 sweep.
type sweepPoint struct {
	dim    string
	values []float64
}

// runFig10 reproduces Fig 10: ABR test reward as one environment parameter
// varies with the rest at Table 3 defaults.
func runFig10(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	hs, err := trainLevelSuite(core.ABR, b, seed)
	if err != nil {
		return nil, err
	}
	sweeps := []sweepPoint{
		{env.ABRChunkLength, []float64{1, 2, 5, 8}},
		{env.ABRBWChangeInterval, []float64{2, 12, 28, 36}},
		{env.ABRMinRTT, []float64{20, 200, 400, 600}},
		{env.ABRVideoLength, []float64{50, 90, 130, 170}},
		{env.ABRMaxBuffer, []float64{10, 60, 140, 220}},
		{env.ABRBWMinRatio, []float64{0.3, 0.5, 0.7, 0.9}},
	}
	return runSweep("fig10", "ABR reward along individual env parameters",
		hs, core.ABR.Space(env.RL3).Default(env.ABRDefaults()), sweeps, b, seed)
}

// runFig11 reproduces Fig 11: LB test reward along job size and interval.
func runFig11(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	hs, err := trainLevelSuite(core.LB, b, seed)
	if err != nil {
		return nil, err
	}
	sweeps := []sweepPoint{
		{env.LBJobSize, []float64{500, 2000, 5000, 9000}},
		{env.LBJobInterval, []float64{0.03, 0.1, 0.3, 0.6}},
	}
	cfg := core.LB.Space(env.RL3).Default(env.LBDefaults())
	// Keep sweep episodes bounded at small scales.
	cfg = cfg.With(env.LBNumJobs, float64(300+200*int(b.stepMult*2)))
	return runSweep("fig11", "LB reward along job size and job interval",
		hs, cfg, sweeps, b, seed)
}

// runSweep evaluates the suite at each sweep point with paired instances.
func runSweep(id, title string, hs map[string]core.Harness, base env.Config, sweeps []sweepPoint, b budget, seed int64) (*Result, error) {
	order := []string{"Genet", "RL1", "RL2", "RL3"}
	res := &Result{ID: id, Title: title, Columns: order}
	n := b.testEnvs / 2
	if n < 3 {
		n = 3
	}
	for _, sw := range sweeps {
		for _, v := range sw.values {
			cfg := base.With(sw.dim, v)
			row := make([]float64, len(order))
			for ci, name := range order {
				ev := hs[name].Eval(cfg, n, 0, rand.New(rand.NewSource(seed+999)))
				row[ci] = ev.RL
			}
			res.AddRow(fmt.Sprintf("%s=%g", sw.dim, v), row...)
		}
	}
	res.Note("expected shape: the Genet column dominates RL1-3 at most sweep points")
	return res, nil
}

// runFig12 reproduces Fig 12: traditional RL trained on real+synthetic
// mixtures (real-trace ratio 5-100%) vs Genet with trace augmentation, both
// tested on held-out trace-driven environments.
func runFig12(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	ts := makeTraceSets(b, seed)
	res := &Result{
		ID:      "fig12",
		Title:   "asymptotic performance with real traces available in training",
		Columns: []string{"test_reward"},
	}
	ratios := []float64{0.05, 0.1, 0.2, 0.5, 1.0}

	// (a) CC over Cellular+Ethernet.
	ccTrain := &trace.Set{Name: "cc-train", Traces: append(append([]*trace.Trace{}, ts.cellularTrain.Traces...), ts.ethernetTrain.Traces...)}
	ccTest := &trace.Set{Name: "cc-test", Traces: append(append([]*trace.Trace{}, ts.cellularTest.Traces...), ts.ethernetTest.Traces...)}
	for _, ratio := range ratios {
		rng := rand.New(rand.NewSource(seed + int64(ratio*100)))
		h, err := b.ccHarness(env.RL3, rng)
		if err != nil {
			return nil, err
		}
		h.TraceSet = ccTrain
		h.TraceProb = ratio
		core.TrainTraditional(h, b.totalIters(), rng)
		r := ccEvalTraces(map[string]func() cc.Sender{
			"rl": func() cc.Sender { return &cc.AgentSender{Agent: h.Agent} },
		}, ccTest, seed+31)
		res.AddRow(fmt.Sprintf("cc-rl-real%.0f%%", ratio*100), meanOf(r["rl"]))
	}
	{
		rng := rand.New(rand.NewSource(seed + 77))
		h, err := b.ccHarness(env.RL3, rng)
		if err != nil {
			return nil, err
		}
		h.TraceSet = ccTrain
		h.TraceProb = 0.3
		if _, err := core.NewTrainer(h, b.genetOptions()).Run(rng); err != nil {
			return nil, err
		}
		r := ccEvalTraces(map[string]func() cc.Sender{
			"rl": func() cc.Sender { return &cc.AgentSender{Agent: h.Agent} },
		}, ccTest, seed+31)
		res.AddRow("cc-genet", meanOf(r["rl"]))
	}

	// (b) ABR over FCC+Norway.
	abrTrain := &trace.Set{Name: "abr-train", Traces: append(append([]*trace.Trace{}, ts.fccTrain.Traces...), ts.norwayTrain.Traces...)}
	abrTest := &trace.Set{Name: "abr-test", Traces: append(append([]*trace.Trace{}, ts.fccTest.Traces...), ts.norwayTest.Traces...)}
	for _, ratio := range ratios {
		rng := rand.New(rand.NewSource(seed + 200 + int64(ratio*100)))
		h, err := b.abrHarness(rng)
		if err != nil {
			return nil, err
		}
		h.TraceSet = abrTrain
		h.TraceProb = ratio
		core.TrainTraditional(h, b.totalIters(), rng)
		r := abrEvalTraces(map[string]abr.Policy{
			"rl": &abr.AgentPolicy{Agent: h.Agent},
		}, abrTest, seed+32)
		res.AddRow(fmt.Sprintf("abr-rl-real%.0f%%", ratio*100), meanOf(r["rl"]))
	}
	{
		rng := rand.New(rand.NewSource(seed + 277))
		h, err := b.abrHarness(rng)
		if err != nil {
			return nil, err
		}
		h.TraceSet = abrTrain
		h.TraceProb = 0.3
		if _, err := core.NewTrainer(h, b.genetOptions()).Run(rng); err != nil {
			return nil, err
		}
		r := abrEvalTraces(map[string]abr.Policy{
			"rl": &abr.AgentPolicy{Agent: h.Agent},
		}, abrTest, seed+32)
		res.AddRow("abr-genet", meanOf(r["rl"]))
	}
	res.Note("expected shape: genet rows beat every mixing ratio; paper reports 17-18%%")
	return res, nil
}
