// Command genet-bench regenerates the tables and figures of the Genet paper
// from this reproduction.
//
// Usage:
//
//	genet-bench -list
//	genet-bench [-scale smoke|ci|full] [-seed N] [-out FILE] fig9 fig13 ...
//	genet-bench [-scale ci] all
//	genet-bench -micro BENCH_1.json
//	genet-bench -compare BENCH_5.json BENCH_6.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/genet-go/genet/internal/experiments"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/microbench"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "smoke", "experiment budget: smoke|ci|full")
		seedFlag    = flag.Int64("seed", 42, "random seed")
		outFlag     = flag.String("out", "", "write results to this file instead of stdout")
		csvFlag     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		listFlag    = flag.Bool("list", false, "list available experiment ids and exit")
		microFlag   = flag.String("micro", "", "run the RL hot-path micro-benchmarks and write a JSON baseline to this file (e.g. BENCH_1.json), then exit")
		repsFlag    = flag.Int("reps", 3, "with -micro: interleaved repetitions per benchmark (min 3); the baseline records the median and the per-rep spread")
		compareFlag = flag.Bool("compare", false, "compare two BENCH_*.json baselines (old new) and exit non-zero on regression")
		tolFlag     = flag.Float64("tol", compareTolerance, "with -compare: relative ns/op regression threshold floor (raised automatically by per-rep noise)")
		metFlag     = flag.String("metrics", "", "stream JSON-lines run telemetry to this file (closing line is a summary snapshot)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment-id>... | all\n\nflags:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		for _, id := range experiments.IDs() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", id, experiments.Describe(id))
		}
	}
	flag.Parse()

	if *listFlag {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *microFlag != "" {
		if err := runMicro(*microFlag, *repsFlag, microbench.Rows, microbench.Curves); err != nil {
			fatal(err)
		}
		return
	}
	if *compareFlag {
		args := flag.Args()
		if len(args) != 2 {
			fatal(fmt.Errorf("-compare needs exactly two baseline files, got %d", len(args)))
		}
		if err := runCompare(args[0], args[1], *tolFlag); err != nil {
			fatal(err)
		}
		return
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}

	var out io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	// reg stays nil (telemetry off) without -metrics; experiments.Run tags
	// each experiment's slice of the stream.
	var reg *metrics.Registry
	if *metFlag != "" {
		sink, err := metrics.FileSink(*metFlag)
		if err != nil {
			fatal(err)
		}
		reg = metrics.NewRegistry()
		reg.SetSink(sink)
		defer func() {
			reg.EmitSnapshot()
			if err := reg.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "genet-bench: metrics:", err)
			}
		}()
	}

	for _, id := range ids {
		if _, ok := experiments.Lookup(id); !ok {
			fatal(fmt.Errorf("unknown experiment %q (use -list)", id))
		}
		fmt.Fprintf(os.Stderr, "running %s at scale %s...\n", id, scale)
		start := time.Now()
		res, err := experiments.Run(id, scale, *seedFlag, reg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		if *csvFlag {
			if err := res.WriteCSV(out); err != nil {
				fatal(err)
			}
		} else if err := res.Write(out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genet-bench:", err)
	os.Exit(1)
}
