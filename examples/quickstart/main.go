// Quickstart: train an adaptive-bitrate policy with Genet's automatic
// curriculum in under a minute, then compare it against an equal-budget
// traditionally trained policy and the RobustMPC rule-based baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/stats"
)

func main() {
	const seed = 2

	// Genet training: a fresh A3C agent over the full Table 3 range
	// (RL3), with RobustMPC as the guiding rule-based baseline.
	rng := rand.New(rand.NewSource(seed))
	genet, err := core.NewABRHarness(env.ABRSpace(env.RL3), rng)
	if err != nil {
		log.Fatal(err)
	}
	genet.StepsPerIter = 800 // larger iterations stabilize the short demo
	opts := core.Options{
		Rounds:        5, // paper default: 9
		ItersPerRound: 8, // paper default: 10
		BOSteps:       8, // paper default: 15
		EnvsPerEval:   3, // paper default: 10
		// Warm-up is twice a round so the first BO search sees a sane
		// model (see DESIGN.md, engineering notes).
		WarmupIters: 16,
	}
	fmt.Println("training Genet curriculum (a few seconds)...")
	report, err := core.NewTrainer(genet, opts).Run(rng)
	if err != nil {
		log.Fatal(err)
	}
	for _, round := range report.Rounds {
		fmt.Printf("  round %d promoted gap=%.2f env: %s\n",
			round.Round, round.Score, round.Promoted)
	}

	// Equal-budget traditional RL (Algorithm 1) for comparison.
	rng2 := rand.New(rand.NewSource(seed))
	traditional, err := core.NewABRHarness(env.ABRSpace(env.RL3), rng2)
	if err != nil {
		log.Fatal(err)
	}
	traditional.StepsPerIter = 800
	fmt.Printf("training traditional RL for the same %d iterations...\n", opts.TraditionalIters())
	core.TrainTraditional(traditional, opts, rng2)

	// Test both on fresh environments drawn from the full range, paired
	// with the MPC baseline. The median is reported: over a small sample
	// of a heavy-tailed environment distribution a single pathological
	// stall would dominate a mean.
	const nTest = 30
	dist := env.NewDistribution(env.ABRSpace(env.RL3))
	var genetR, tradR, mpcR []float64
	testRng := rand.New(rand.NewSource(999))
	for i := 0; i < nTest; i++ {
		cfg := dist.Sample(testRng)
		instSeed := testRng.Int63()
		g := genet.Eval(cfg, 1, core.NeedBaseline, rand.New(rand.NewSource(instSeed)))
		t := traditional.Eval(cfg, 1, 0, rand.New(rand.NewSource(instSeed)))
		genetR = append(genetR, g.RL)
		tradR = append(tradR, t.RL)
		mpcR = append(mpcR, g.Baseline)
	}
	fmt.Printf("\nmedian reward over %d unseen environments:\n", nTest)
	fmt.Printf("  Genet-trained RL:       %7.3f\n", stats.Median(genetR))
	fmt.Printf("  traditionally trained:  %7.3f\n", stats.Median(tradR))
	fmt.Printf("  RobustMPC baseline:     %7.3f\n", stats.Median(mpcR))
	fmt.Println("\n(At this demo-sized budget the two policies are often comparable;")
	fmt.Println(" the curriculum's advantage emerges at larger budgets — run")
	fmt.Println("   go run ./cmd/genet-bench -scale ci fig9")
	fmt.Println(" for the multi-seed comparison across all three use cases.)")
}
