// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads — Genet curriculum training on the ABR and CC harnesses,
// and in-process policy serving — and prints the end-to-end metrics of an
// untraced run, or (with --trace 1) the per-layer breakdown of those and of
// policy serving over HTTP, one tree per pass with its unattributed
// remainder. Every layer is
// timed from outside, by wrapping calls into the repository's public
// functions and reading the spans the program already records.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the repository root; README.md in
// this directory records why each workload and metric was chosen.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records n failed operations.
func (r *result) fail(n int64) { r.Failed += n }

// config is what every workload receives.
type config struct {
	seed   int64
	budget time.Duration // measured time of the run
	dir    string        // private scratch directory, removed at exit
}

// workload is one benchmark workload: run measures its end-to-end metrics
// untraced (nil for a traced pass without end-to-end figures); trace
// measures its per-layer metrics and returns the tree that explains them.
type workload struct {
	name  string
	run   func(config) (*result, error)
	trace func(config) (*result, *node, error)
}

var workloads = []workload{
	{"train-abr", func(c config) (*result, error) { return trainE2E("abr", c) }, func(c config) (*result, *node, error) { return trainTrace("abr", c) }},
	{"train-cc", func(c config) (*result, error) { return trainE2E("cc", c) }, func(c config) (*result, *node, error) { return trainTrace("cc", c) }},
	{"serve-inproc", inprocE2E, inprocTrace},
	// Serving over HTTP has per-layer figures only: its end-to-end ones
	// swung by 15-25% between runs of the same code on a shared 2-vCPU host,
	// too much to gate on (README.md).
	{"serve-http", nil, httpTrace},
}

// Load is sized for a 2-CPU host: at most two callers, senders and
// keep-alive connections, whatever the machine has.
const loadWorkers = 2

func main() {
	var (
		name    = flag.String("workload", "", "workload: train-abr|train-cc|serve-inproc|all")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		secs    = flag.Int("seconds", 20, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of every workload from traced runs")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	if *name == "all" {
		if err := runAll(*seed, *secs, *traceOn); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || w.run == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fatal(err)
	}
	budget := time.Duration(*secs) * time.Second
	var res *result
	if *traceOn == 1 {
		res, err = traceAll(config{seed: *seed, budget: budget, dir: dir})
	} else {
		res, err = w.run(config{seed: *seed, budget: budget, dir: dir})
		if err == nil {
			res.set("peak_rss_mb", peakRSSMB(), "MB")
			printMetrics(w.name, res)
		}
	}
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	res.Correct = res.Failed == 0
	emit(res)
}

// traceAll runs the traced pass of every workload, each for an equal share
// of the budget, prints one tree per pass, and reports the union of their
// per-layer metrics, each prefixed with its pass's name.
func traceAll(c config) (*result, error) {
	out := &result{Metrics: map[string]metric{}}
	share := c.budget / time.Duration(len(workloads))
	for _, w := range workloads {
		wc := c
		wc.budget = share
		res, tree, err := w.trace(wc)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		fmt.Printf("== %s (traced)\n", w.name)
		tree.print(os.Stdout, "", true, true)
		if res.Failed > 0 {
			fmt.Printf("   FAILED operations: %d\n", res.Failed)
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			out.Metrics[w.name+"."+k] = v
		}
		fmt.Println()
	}
	return out, nil
}

// runAll runs every workload in its own process, so peak memory and set-up
// time belong to one workload alone, prints each one's report, and ends
// with one combined JSON line whose metric names carry the workload prefix.
func runAll(seed int64, secs, traceOn int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{}
	for _, w := range workloads {
		if w.run != nil {
			names = append(names, w.name)
		}
	}
	if traceOn == 1 {
		// One traced run already covers every pass.
		names = names[:1]
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		cmd := exec.Command(self, "--workload", n, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(secs), "--trace", fmt.Sprint(traceOn))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			if traceOn == 0 {
				k = n + "." + k
			}
			all.Metrics[k] = v
		}
	}
	emit(all)
	return nil
}

// lastResult parses the JSON result on the last non-empty line of out.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

// printMetrics prints the end-to-end metrics by name and unit.
func printMetrics(name string, r *result) {
	fmt.Printf("== %s: %d operations attempted, %d failed\n", name, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.Metrics[k]
		fmt.Printf("   %-16s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

func emit(r *result) {
	data, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
