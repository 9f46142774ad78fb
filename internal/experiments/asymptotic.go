package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/fleet"
	"github.com/genet-go/genet/internal/trace"
)

func init() {
	register("fig9", "Genet vs RL1/RL2/RL3 on the full synthetic range, all three use cases", runFig9)
	register("fig10", "ABR reward sweeps along six environment parameters (Genet vs RL1-3)", runFig10)
	register("fig11", "LB reward sweeps along job size and interval (Genet vs RL1-3)", runFig11)
	register("fig12", "trace+synthetic training mixtures vs Genet (ABR and CC)", runFig12)
}

// trainLevelSuite trains the RL1/RL2/RL3 traditional policies plus Genet for
// one use case, each from its own offset of seed.
func trainLevelSuite(uc *core.UseCase, b budget, seed int64) (map[string]core.Harness, error) {
	hs := make(map[string]core.Harness, 4)
	for name, off := range map[string]int64{"RL1": int64(env.RL1), "RL2": int64(env.RL2), "RL3": int64(env.RL3), "Genet": 7} {
		h, err := b.train(uc, name, seed+off, nil)
		if err != nil {
			return nil, err
		}
		hs[name] = h
	}
	return hs, nil
}

// runFig9 reproduces Fig 9: with the target distribution set to the full
// RL3 ranges, Genet-trained policies beat all three traditionally trained
// policies across CC, ABR, and LB. Each use case is one fleet sweep over the
// four strategies and the training seeds (the paper trains three per
// policy), its cells run in parallel; a row is the mean over seeds of the
// cells' test rewards with its bootstrap CI.
func runFig9(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	nSeeds := map[Scale]int{Smoke: 1, CI: 2, Full: 3}[scale]
	var seeds []int64
	for s := 0; s < nSeeds; s++ {
		seeds = append(seeds, seed+int64(1000*s))
	}
	dir, err := os.MkdirTemp("", "genet-fig9-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &Result{
		ID:      "fig9",
		Title:   "asymptotic performance on the full synthetic range",
		Columns: []string{"test_reward", "ci_lo", "ci_hi"},
	}
	labels := []string{"RL1", "RL2", "RL3", "Genet"}
	for _, uc := range []*core.UseCase{core.CC, core.ABR, core.LB} {
		cfg := &fleet.Config{
			Envs: []string{uc.Name}, Modes: slices.Clone(labels), Seeds: seeds,
			Budget: b.fleetBudget(uc), EvalEnvs: b.testEnvs,
		}
		sweep, err := fleet.Run(cfg, fleet.Options{OutDir: filepath.Join(dir, uc.Name)})
		if err != nil {
			return nil, err
		}
		// Groups come in the declared mode order.
		for i, g := range sweep.Summary.Groups {
			res.AddRow(fmt.Sprintf("%s-%s", uc, labels[i]), g.Reward.Point, g.Reward.Lo, g.Reward.Hi)
		}
		var bl []float64
		for _, c := range sweep.Cells {
			bl = append(bl, c.EvalBaseline)
		}
		res.AddRow(fmt.Sprintf("%s-baseline", uc), meanOf(bl))
	}
	res.Note("averaged over %d training seed(s); ci_lo/ci_hi bound the mean with a 95%% bootstrap CI over seeds", nSeeds)
	res.Note("every strategy of a seed trains from that seed and is tested on the same %d environments drawn from RL3", b.testEnvs)
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
	n := max(b.testEnvs/2, 3)
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
	// (a) CC over Cellular+Ethernet, (b) ABR over FCC+Norway.
	for _, half := range []struct {
		uc             *core.UseCase
		seed, testSeed int64
		train, test    *trace.Set
	}{{core.CC, 0, 31, ts.ccTrain, ts.ccTest}, {core.ABR, 200, 32, ts.abrTrain, ts.abrTest}} {
		test := func(h core.Harness) float64 {
			r := onTraces(map[string]tracePolicy{"rl": modelPolicy(h, false)}, half.test, seed+half.testSeed)
			return meanOf(rewardsOf(r["rl"]))
		}
		for _, ratio := range ratios {
			h, err := b.train(half.uc, "rl3", seed+half.seed+int64(ratio*100), mixTraces(half.train, ratio))
			if err != nil {
				return nil, err
			}
			res.AddRow(fmt.Sprintf("%s-rl-real%.0f%%", half.uc, ratio*100), test(h))
		}
		h, err := b.train(half.uc, "genet", seed+half.seed+77, mixTraces(half.train, 0.3))
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("%s-genet", half.uc), test(h))
	}
	res.Note("expected shape: genet rows beat every mixing ratio; paper reports 17-18%%")
	return res, nil
}
