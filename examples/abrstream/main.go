// abrstream demonstrates the adaptive-bitrate substrate directly: it streams
// the same video over the same bandwidth trace with every built-in ABR
// policy (buffer-based BBA, RobustMPC, rate-based, the naive §5.4 baseline,
// and the omniscient oracle) and prints a per-policy breakdown, then shows
// how reward degrades for a fixed policy as the network gets harder.
//
//	go run ./examples/abrstream
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/trace"
)

func main() {
	const seed = 21
	space := env.ABRSpace(env.RL3)
	cfg := space.Default(env.ABRDefaults())

	// Build one fixed environment instance so all policies face exactly
	// the same video and bandwidth.
	inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		log.Fatal(err)
	}
	feat := trace.ExtractFeatures(inst.Trace)
	fmt.Printf("environment: %s\n", cfg)
	fmt.Printf("trace: mean %.2f Mbps in [%.2f, %.2f], changes every %.1fs\n\n",
		feat.MeanBW, feat.MinBW, feat.MaxBW, feat.ChangeInterval)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\treward/chunk\tbitrate(Mbps)\trebuffer(s)\tswitches(Mbps)")
	for _, p := range []abr.Policy{
		&abr.BBA{}, abr.NewRobustMPC(), abr.RateBased{}, abr.Naive{},
	} {
		m := inst.Evaluate(p)
		fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.2f\t%.3f\n",
			p.Name(), m.MeanReward, m.MeanBitrate, m.TotalRebuffer, m.MeanChange)
	}
	// The oracle plans with the ground-truth future bandwidth.
	m := inst.EvaluateOmniscient()
	fmt.Fprintf(w, "Omniscient\t%.3f\t%.2f\t%.2f\t%.3f\n",
		m.MeanReward, m.MeanBitrate, m.TotalRebuffer, m.MeanChange)
	w.Flush()

	// Difficulty sweep: RobustMPC as bandwidth fluctuation accelerates.
	fmt.Println("\nRobustMPC vs bandwidth-change interval (lower = harder):")
	for _, interval := range []float64{30, 10, 5, 2} {
		var total float64
		const n = 5
		for i := 0; i < n; i++ {
			in2, err := abr.NewInstance(cfg.With(env.ABRBWChangeInterval, interval), nil,
				rand.New(rand.NewSource(seed+int64(i))))
			if err != nil {
				log.Fatal(err)
			}
			total += in2.Evaluate(abr.NewRobustMPC()).MeanReward
		}
		fmt.Printf("  change every %4.0fs: reward %.3f\n", interval, total/n)
	}
}
