package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/bo"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/stats"
)

func init() {
	register("fig6", "gap-to-baseline vs gap-to-optimum as predictors of training improvement (Pearson correlations)", runFig6)
	register("fig18", "training curves: Genet vs RL3 and the CL1/CL2/CL3 alternative curricula", runFig18)
	register("fig19", "Genet vs the Robustify-style BO objective (rho = 0.1/0.5/1)", runFig19)
	register("fig20", "BO vs random vs coordinate search efficiency at finding high-gap environments", runFig20)
	register("fig22", "RL3 and CL curricula with doubled training budget still trail Genet", runFig22)
}

// runFig6 reproduces Fig 6: over a pool of random configurations, the
// intermediate model's gap-to-baseline correlates with the reward
// improvement obtained by training on that configuration — more strongly
// than the gap-to-optimum does.
func runFig6(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	nConfigs := map[Scale]int{Smoke: 6, CI: 20, Full: 60}[scale]
	trainIters := b.ItersPerRound

	res := &Result{
		ID:      "fig6",
		Title:   "correlation of gap metrics with training improvement",
		Columns: []string{"pearson_vs_improvement", "n_configs"},
	}
	for _, uc := range []*core.UseCase{core.ABR, core.CC} {
		// Intermediate model: a few warm-up iterations, as in the paper
		// (both example policies are mid-training snapshots).
		inter, err := b.pretrain(uc, seed)
		if err != nil {
			return nil, err
		}

		var gapsBase, gapsOpt, improvements []float64
		cfgRng := rand.New(rand.NewSource(seed + 5))
		for i := 0; i < nConfigs; i++ {
			cfg := inter.Space().Sample(cfgRng)
			ev := inter.Eval(cfg, b.EnvsPerEval, core.NeedBaseline|core.NeedOptimal, rand.New(rand.NewSource(seed+int64(i))))
			// Train a clone on this configuration alone and measure the
			// reward improvement on it.
			clone := inter.Snapshot()
			dist := env.NewDistribution(inter.Space())
			if err := dist.Promote(cfg, 0.9); err != nil {
				return nil, err
			}
			clone.Train(dist, trainIters, rand.New(rand.NewSource(seed+1000+int64(i))))
			after := clone.Eval(cfg, b.EnvsPerEval, 0, rand.New(rand.NewSource(seed+int64(i))))
			gapsBase = append(gapsBase, ev.GapToBaseline())
			gapsOpt = append(gapsOpt, ev.GapToOptimal())
			improvements = append(improvements, after.RL-ev.RL)
		}
		res.AddRow(fmt.Sprintf("%s-gap-to-baseline", uc), stats.Pearson(gapsBase, improvements), float64(nConfigs))
		res.AddRow(fmt.Sprintf("%s-gap-to-optimum", uc), stats.Pearson(gapsOpt, improvements), float64(nConfigs))
	}
	res.Note("expected shape: gap-to-baseline correlation exceeds gap-to-optimum in each use case (paper: 0.85 vs 0.49 ABR, 0.88 vs 0.49 CC)")
	return res, nil
}

// fluctuationSchedule is the CL1 heuristic for abr and cc: each round
// promotes a configuration, at the use case's defaults otherwise, with a
// higher bandwidth-fluctuation frequency (shorter change interval) than the
// last, the hand-picked difficulty axis from §5.5.
func fluctuationSchedule(uc *core.UseCase) core.HeuristicSchedule {
	return func(round, total int, space *env.Space) env.Config {
		// abr and cc name the dimension alike.
		d := space.Dims()[space.DimIndex(env.ABRBWChangeInterval)]
		frac := float64(round+1) / float64(total)
		return space.Default(uc.Defaults()).With(d.Name, d.Max-frac*(d.Max-d.Min))
	}
}

// runCurves trains uc under each Fig 18 strategy from seed and returns each
// strategy's test-reward curve, checkpointed after warm-up and after every
// round. The strategies other than Genet get extraIterMult (at least 1)
// times the rounds. RL3 trains in the same round cadence; CL1 is the
// curriculum loop promoting fluctuationSchedule's configurations.
func runCurves(uc *core.UseCase, b budget, seed int64, extraIterMult int) (map[string][]float64, error) {
	nTest := max(b.testEnvs/2, 3)
	curves := make(map[string][]float64)
	for _, name := range []string{"Genet", "RL3", "CL1", "CL2", "CL3"} {
		mode := name
		if name == "CL1" {
			mode = "genet"
		}
		if _, err := b.train(uc, mode, seed, func(h core.Harness, o *core.Options) {
			if name != "Genet" {
				o.Rounds *= extraIterMult
			}
			if name == "CL1" {
				o.Schedule = fluctuationSchedule(uc)
			}
			o.AfterRound = func(int) { curves[name] = append(curves[name], testReward(h, nTest, seed+777)) }
		}); err != nil {
			return nil, err
		}
	}
	return curves, nil
}

// runFig18 reproduces Fig 18: Genet's test-reward curve ramps up faster
// than traditional RL3 training and the CL1/CL2/CL3 alternatives.
func runFig18(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{ID: "fig18", Title: "training curves by curriculum strategy"}
	maxCkpt := 0
	type ucCurves struct {
		uc     *core.UseCase
		curves map[string][]float64
	}
	var all []ucCurves
	for _, uc := range []*core.UseCase{core.ABR, core.CC} {
		curves, err := runCurves(uc, b, seed, 1)
		if err != nil {
			return nil, err
		}
		all = append(all, ucCurves{uc, curves})
		for _, c := range curves {
			if len(c) > maxCkpt {
				maxCkpt = len(c)
			}
		}
	}
	for i := 0; i < maxCkpt; i++ {
		res.Columns = append(res.Columns, fmt.Sprintf("ckpt%d", i))
	}
	for _, e := range all {
		for _, name := range []string{"Genet", "RL3", "CL1", "CL2", "CL3"} {
			res.AddRow(fmt.Sprintf("%s-%s", e.uc, name), e.curves[name]...)
		}
	}
	res.Note("checkpoints are taken after warm-up and after each curriculum round; expected shape: the Genet rows ramp fastest")
	return res, nil
}

// abrNonSmoothness maps an ABR configuration to the Robustify penalty term:
// bandwidth fluctuation frequency times relative fluctuation magnitude,
// normalized to roughly [0, 1].
func abrNonSmoothness(cfg env.Config) float64 {
	interval := cfg.Get(env.ABRBWChangeInterval)
	span := 1 - cfg.Get(env.ABRBWMinRatio) // relative swing size
	return span / (1 + interval)
}

// runFig19 reproduces Fig 19: Genet beats the §A.6 Robustify-style variant
// where BO maximizes gap-to-optimum minus rho x non-smoothness.
func runFig19(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "fig19",
		Title:   "Genet vs BO with the Robustify objective (ABR)",
		Columns: []string{"test_reward"},
	}
	// MPC reference row.
	{
		h, err := b.harness(core.ABR, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		_, bl := testRewards(h, b.testEnvs, core.NeedBaseline, seed+70)
		res.AddRow("MPC", meanOf(bl))
	}

	for _, rho := range []float64{0.1, 0.5, 1.0} {
		h, err := b.train(core.ABR, "genet", seed+int64(rho*10), func(_ core.Harness, o *core.Options) {
			o.Objective = core.RobustifyObjective(rho, abrNonSmoothness)
		})
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("robustify-rho%.1f", rho), testReward(h, b.testEnvs, seed+70))
	}
	genet, err := b.train(core.ABR, "genet", seed+99, nil)
	if err != nil {
		return nil, err
	}
	res.AddRow("Genet", testReward(genet, b.testEnvs, seed+70))
	res.Note("the Robustify rows use the paper's §A.6 alternative implementation (BO with the Robustify reward), the variant Fig 19 evaluates directly")
	res.Note("expected shape: Genet > all robustify-rho rows > MPC is not guaranteed for MPC; the key comparison is Genet vs robustify rows")
	return res, nil
}

// runFig20 reproduces Fig 20: for a fixed intermediate model, BO finds
// high-gap configurations in ~15 evaluations, approaching what random
// search needs ~100 evaluations to match, while coordinate ("grid") search
// converges more slowly.
func runFig20(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	budgetEvals := map[Scale]int{Smoke: 20, CI: 60, Full: 100}[scale]
	checkpoints := []int{5, 10, 15, 25, 50, 100}

	res := &Result{ID: "fig20", Title: "search efficiency for high-gap environments"}
	for _, c := range checkpoints {
		if c <= budgetEvals {
			res.Columns = append(res.Columns, fmt.Sprintf("best@%d", c))
		}
	}

	for _, uc := range []*core.UseCase{core.ABR, core.CC} {
		h, err := b.pretrain(uc, seed)
		if err != nil {
			return nil, err
		}

		evalRng := rand.New(rand.NewSource(seed + 3))
		objective := func(x []float64) float64 {
			cfg, err := h.Space().FromUnit(x)
			if err != nil {
				return 0
			}
			return h.Eval(cfg, b.EnvsPerEval, core.NeedBaseline, evalRng).GapToBaseline()
		}
		dims := h.Space().NumDims()

		boTrace, err := bo.Maximize(objective, bo.Options{Dims: dims, Steps: min(15, budgetEvals)}, rand.New(rand.NewSource(seed+10)))
		if err != nil {
			return nil, err
		}
		randTrace := bo.RandomSearch(objective, dims, budgetEvals, rand.New(rand.NewSource(seed+11)))
		gridTrace := bo.CoordinateSearch(objective, dims, 5, budgetEvals, rand.New(rand.NewSource(seed+12)))

		addSeries := func(name string, tr *bo.Trace) {
			var row []float64
			for _, c := range checkpoints {
				if c > budgetEvals {
					continue
				}
				if best, ok := tr.BestAfter(c); ok {
					row = append(row, best.Value)
				} else {
					row = append(row, 0)
				}
			}
			res.AddRow(fmt.Sprintf("%s-%s", uc, name), row...)
		}
		addSeries("bo", boTrace)
		addSeries("random", randTrace)
		addSeries("grid", gridTrace)
	}
	res.Note("BO stops at 15 evaluations (its Algorithm 2 budget); its best@15 should approach random search's best@%d", budgetEvals)
	return res, nil
}

// runFig22 reproduces §A.8 / Fig 22: doubling the training budget of RL3
// and the CL curricula still does not catch Genet at its original budget.
func runFig22(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "fig22",
		Title:   "doubled budget for RL3/CL1-3 vs Genet at 1x (final test reward)",
		Columns: []string{"final_test_reward"},
	}
	for _, uc := range []*core.UseCase{core.ABR, core.CC} {
		curves, err := runCurves(uc, b, seed, 2)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"Genet", "RL3", "CL1", "CL2", "CL3"} {
			c := curves[name]
			if len(c) == 0 {
				continue
			}
			label := name
			if name != "Genet" {
				label = name + "-2x"
			}
			res.AddRow(fmt.Sprintf("%s-%s", uc, label), c[len(c)-1])
		}
	}
	res.Note("expected shape: Genet at 1x budget still leads the 2x rows")
	return res, nil
}
