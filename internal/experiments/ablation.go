package experiments

import (
	"fmt"

	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
)

func init() {
	register("ablation-w", "sensitivity to the promotion weight w (paper default 0.3)", runAblationW)
	register("ablation-forgetting", "forced exploration floor hurts Genet (footnote 7)", runAblationForgetting)
	register("ablation-ensemble", "single baseline vs the §7 ensemble-of-baselines objective (CC)", runAblationEnsemble)
	register("ablation-warmup", "effect of skipping the uniform warm-up phase", runAblationWarmup)
}

// variant is one row of an ablation: a label and the edit applied to the
// fresh Genet harness and options.
type variant struct {
	label string
	edit  func(core.Harness, *core.Options)
}

// ablate trains one Genet policy of uc per variant, each from seed, and
// adds its mean test reward to res as a row.
func ablate(res *Result, uc *core.UseCase, scale Scale, seed int64, variants []variant) (*Result, error) {
	b := budgetFor(scale)
	res.Columns = []string{"test_reward"}
	for _, v := range variants {
		h, err := b.train(uc, "genet", seed, v.edit)
		if err != nil {
			return nil, err
		}
		res.AddRow(v.label, testReward(h, b.testEnvs, seed+50))
	}
	return res, nil
}

// runAblationW sweeps the promotion weight w: too small and the curriculum
// barely shifts the distribution, too large and it forgets the base range.
func runAblationW(scale Scale, seed int64) (*Result, error) {
	res := &Result{ID: "ablation-w", Title: "Genet (ABR) vs promotion weight w"}
	res.Note("expected shape: a broad optimum around the paper's w=0.3; extremes underperform")
	var vs []variant
	for _, w := range []float64{0.1, 0.3, 0.5, 0.7} {
		vs = append(vs, variant{fmt.Sprintf("w=%.1f", w), func(_ core.Harness, o *core.Options) { o.PromoteWeight = w }})
	}
	return ablate(res, core.ABR, scale, seed, vs)
}

// runAblationForgetting reproduces footnote 7: imposing a minimum fraction
// of uniform "exploration" samples — the textbook anti-forgetting measure —
// makes Genet worse, because it dilutes the curriculum.
func runAblationForgetting(scale Scale, seed int64) (*Result, error) {
	res := &Result{ID: "ablation-forgetting", Title: "Genet (ABR) with a forced exploration floor"}
	res.Note("expected shape: floor=0 (plain Genet) at or above the forced-exploration rows (footnote 7)")
	var vs []variant
	for _, floor := range []float64{0, 0.3, 0.6} {
		vs = append(vs, variant{fmt.Sprintf("floor=%.1f", floor), func(_ core.Harness, o *core.Options) { o.ExplorationFloor = floor }})
	}
	return ablate(res, core.ABR, scale, seed, vs)
}

// runAblationEnsemble compares Genet guided by BBR alone against the §7
// ensemble max(BBR, Cubic, Copa) on CC.
func runAblationEnsemble(scale Scale, seed int64) (*Result, error) {
	res := &Result{ID: "ablation-ensemble", Title: "Genet (CC) with a single baseline vs an ensemble"}
	res.Note("the ensemble gap (max over members - RL) finds environments where *any* heuristic beats the model (§7)")
	return ablate(res, core.CC, scale, seed, []variant{
		{"single-BBR", nil},
		{"ensemble-BBR+Cubic+Copa", func(h core.Harness, _ *core.Options) {
			h.(*core.CCHarness).Ensemble = []func() cc.Sender{
				func() cc.Sender { return cc.NewBBR() },
				func() cc.Sender { return cc.NewCubic() },
				func() cc.Sender { return cc.NewCopa() },
			}
		}},
	})
}

// runAblationWarmup removes the uniform warm-up phase before the first
// promotion.
func runAblationWarmup(scale Scale, seed int64) (*Result, error) {
	res := &Result{ID: "ablation-warmup", Title: "Genet (ABR) with and without uniform warm-up"}
	res.Note("§4.2: Genet 'does begin the training over the whole space of environments in the first iteration'; skipping it makes the first BO search target an untrained model")
	warmup := budgetFor(scale).Warmup
	return ablate(res, core.ABR, scale, seed, []variant{
		{"warmup=off", func(_ core.Harness, o *core.Options) { o.WarmupIters = -1 }}, // -1 encodes "disabled"
		{fmt.Sprintf("warmup=%d", warmup), func(_ core.Harness, o *core.Options) { o.WarmupIters = warmup }},
	})
}
