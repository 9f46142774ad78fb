package experiments

import (
	"fmt"
	"math/rand"

	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
)

func init() {
	register("ablation-w", "sensitivity to the promotion weight w (paper default 0.3)", runAblationW)
	register("ablation-forgetting", "forced exploration floor hurts Genet (footnote 7)", runAblationForgetting)
	register("ablation-ensemble", "single baseline vs the §7 ensemble-of-baselines objective (CC)", runAblationEnsemble)
	register("ablation-warmup", "effect of skipping the uniform warm-up phase", runAblationWarmup)
}

// evalABRModel evaluates an ABR harness's model over the full distribution.
func evalABRModel(h core.Harness, b budget, seed int64) float64 {
	dist := env.NewDistribution(h.Space())
	evals := core.EvalOverDistribution(h, dist, b.testEnvs, 0, rand.New(rand.NewSource(seed)))
	var rl []float64
	for _, ev := range evals {
		rl = append(rl, ev.RL)
	}
	return meanOf(rl)
}

// runAblationW sweeps the promotion weight w: too small and the curriculum
// barely shifts the distribution, too large and it forgets the base range.
func runAblationW(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "ablation-w",
		Title:   "Genet (ABR) vs promotion weight w",
		Columns: []string{"test_reward"},
	}
	for _, w := range []float64{0.1, 0.3, 0.5, 0.7} {
		rng := rand.New(rand.NewSource(seed))
		h, err := b.harness(core.ABR, env.RL3, rng)
		if err != nil {
			return nil, err
		}
		opts := b.genetOptions()
		opts.PromoteWeight = w
		if _, err := core.NewTrainer(h, opts).Run(rng); err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("w=%.1f", w), evalABRModel(h, b, seed+50))
	}
	res.Note("expected shape: a broad optimum around the paper's w=0.3; extremes underperform")
	return res, nil
}

// runAblationForgetting reproduces footnote 7: imposing a minimum fraction
// of uniform "exploration" samples — the textbook anti-forgetting measure —
// makes Genet worse, because it dilutes the curriculum.
func runAblationForgetting(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "ablation-forgetting",
		Title:   "Genet (ABR) with a forced exploration floor",
		Columns: []string{"test_reward"},
	}
	for _, floor := range []float64{0, 0.3, 0.6} {
		rng := rand.New(rand.NewSource(seed))
		h, err := b.harness(core.ABR, env.RL3, rng)
		if err != nil {
			return nil, err
		}
		opts := b.genetOptions()
		opts.ExplorationFloor = floor
		if _, err := core.NewTrainer(h, opts).Run(rng); err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("floor=%.1f", floor), evalABRModel(h, b, seed+50))
	}
	res.Note("expected shape: floor=0 (plain Genet) at or above the forced-exploration rows (footnote 7)")
	return res, nil
}

// runAblationEnsemble compares Genet guided by BBR alone against the §7
// ensemble max(BBR, Cubic, Copa) on CC.
func runAblationEnsemble(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "ablation-ensemble",
		Title:   "Genet (CC) with a single baseline vs an ensemble",
		Columns: []string{"test_reward"},
	}
	evalCC := func(h core.Harness) float64 {
		dist := env.NewDistribution(h.Space())
		evals := core.EvalOverDistribution(h, dist, b.testEnvs, 0, rand.New(rand.NewSource(seed+50)))
		var rl []float64
		for _, ev := range evals {
			rl = append(rl, ev.RL)
		}
		return meanOf(rl)
	}
	{
		rng := rand.New(rand.NewSource(seed))
		h, err := b.harness(core.CC, env.RL3, rng)
		if err != nil {
			return nil, err
		}
		if _, err := core.NewTrainer(h, b.genetOptions()).Run(rng); err != nil {
			return nil, err
		}
		res.AddRow("single-BBR", evalCC(h))
	}
	{
		rng := rand.New(rand.NewSource(seed))
		h, err := b.ccHarness(env.RL3, rng)
		if err != nil {
			return nil, err
		}
		h.Ensemble = []func() cc.Sender{
			func() cc.Sender { return cc.NewBBR() },
			func() cc.Sender { return cc.NewCubic() },
			func() cc.Sender { return cc.NewCopa() },
		}
		if _, err := core.NewTrainer(h, b.genetOptions()).Run(rng); err != nil {
			return nil, err
		}
		res.AddRow("ensemble-BBR+Cubic+Copa", evalCC(h))
	}
	res.Note("the ensemble gap (max over members - RL) finds environments where *any* heuristic beats the model (§7)")
	return res, nil
}

// runAblationWarmup removes the uniform warm-up phase before the first
// promotion.
func runAblationWarmup(scale Scale, seed int64) (*Result, error) {
	b := budgetFor(scale)
	res := &Result{
		ID:      "ablation-warmup",
		Title:   "Genet (ABR) with and without uniform warm-up",
		Columns: []string{"test_reward"},
	}
	for _, warmup := range []int{-1, b.warmup} { // -1 encodes "disabled"
		rng := rand.New(rand.NewSource(seed))
		h, err := b.harness(core.ABR, env.RL3, rng)
		if err != nil {
			return nil, err
		}
		opts := b.genetOptions()
		opts.WarmupIters = warmup
		label := fmt.Sprintf("warmup=%d", warmup)
		if warmup < 0 {
			label = "warmup=off"
		}
		if _, err := core.NewTrainer(h, opts).Run(rng); err != nil {
			return nil, err
		}
		res.AddRow(label, evalABRModel(h, b, seed+50))
	}
	res.Note("§4.2: Genet 'does begin the training over the whole space of environments in the first iteration'; skipping it makes the first BO search target an untrained model")
	return res, nil
}
