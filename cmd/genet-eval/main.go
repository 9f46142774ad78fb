// Command genet-eval evaluates a trained model (from genet-train) against
// the rule-based baselines, over synthetic environments or one of the
// synthesized Table 2 trace sets.
//
// Usage:
//
//	genet-eval -usecase abr -model abr.model -n 100
//	genet-eval -usecase cc -model cc.model -traces cellular
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "genet-eval:", err)
		os.Exit(1)
	}
}

// run parses args and prints the reward table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("genet-eval", flag.ContinueOnError)
	var (
		useCase   = fs.String("usecase", "abr", "use case: abr|cc|lb")
		modelPath = fs.String("model", "", "model file from genet-train (required)")
		n         = fs.Int("n", 50, "number of test environments")
		level     = fs.String("level", "rl3", "synthetic test range: rl1|rl2|rl3")
		traces    = fs.String("traces", "", "evaluate on a synthesized trace set instead: fcc|norway|cellular|ethernet")
		seed      = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	uc, err := core.LookupUseCase(*useCase)
	if err != nil {
		return err
	}
	lvl, err := env.ParseRangeLevel(*level)
	if err != nil {
		return err
	}
	if *traces != "" && !uc.TraceDriven {
		return fmt.Errorf("-traces is not supported for %s: its environments are not trace-driven", uc.Name)
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	agent, err := uc.LoadAgent(f)
	if err != nil {
		return err
	}

	compare := uc.Compare(agent)
	rewards := map[string][]float64{}
	add := func(rs map[string]float64) {
		for name, r := range rs {
			rewards[name] = append(rewards[name], r)
		}
	}
	if *traces != "" {
		spec, ok := trace.Specs()[strings.ToLower(*traces)]
		if !ok {
			return fmt.Errorf("unknown trace set %q", *traces)
		}
		_, set := trace.GenerateTrainTest(spec, 0.2, rand.New(rand.NewSource(*seed)))
		cfg := uc.Space(env.RL3).Default(uc.Defaults())
		for i, tr := range set.Traces {
			add(compare(cfg, tr, *seed+int64(i), nil))
		}
	} else {
		space := uc.Space(lvl)
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *n; i++ {
			add(compare(space.Sample(rng), nil, *seed+int64(i), rng))
		}
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tmean_reward\tp10\tp90")
	printRows(w, rewards)
	return w.Flush()
}

// printRows writes one row per policy: the model first, then the rest in
// alphabetical order.
func printRows(w io.Writer, rewards map[string][]float64) {
	names := make([]string, 0, len(rewards))
	for name := range rewards {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if (names[i] == "model") != (names[j] == "model") {
			return names[i] == "model"
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		xs := rewards[name]
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\n", name,
			stats.Mean(xs), stats.Percentile(xs, 10), stats.Percentile(xs, 90))
	}
}
