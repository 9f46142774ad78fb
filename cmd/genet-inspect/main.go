// Command genet-inspect summarizes (and diffs) run directories written by
// genet-train -rundir: it validates the artifact layout, aggregates
// per-phase wall-clock from the span trace, extracts loss/entropy/KL and
// reward trends from the event stream, reconstructs the recovery timeline,
// and prints the final counter snapshot.
//
// Usage:
//
//	genet-inspect RUNDIR            # summarize one run
//	genet-inspect RUNDIR1 RUNDIR2   # diff two runs
//	genet-inspect -serve RUNDIR     # summarize a genet-serve -rundir run
//
// -serve reads the serving artifacts instead: the access log's outcome
// breakdown (reconciled exactly against the final counter snapshot — any
// disagreement is an error), per-model-version latency, the SLO burn-rate
// timeline, the -slow N slowest traces resolved to their recorded spans,
// and the decide histogram's p99 exemplar resolved the same way.
//
// Exit status is 0 when every named run directory is complete and
// parseable, non-zero otherwise — the CI obs job uses it as the
// "instrumented training produced valid artifacts" assertion.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

func main() {
	fleetMode := flag.Bool("fleet", false, "arguments are fleet summary.json files: summarize one, or gate the second against the first (golden)")
	serveMode := flag.Bool("serve", false, "argument is a genet-serve -rundir directory: outcome breakdown, reconciliation, burn-rate timeline, slowest traces")
	slowN := flag.Int("slow", 10, "-serve: how many slowest traces to resolve")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: genet-inspect RUNDIR [RUNDIR2]")
		fmt.Fprintln(os.Stderr, "       genet-inspect -fleet SUMMARY.json [GOLDEN-first gate: SUMMARY2.json]")
		fmt.Fprintln(os.Stderr, "       genet-inspect -serve [-slow N] RUNDIR")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch {
	case *serveMode && flag.NArg() == 1:
		err = serveSummarize(os.Stdout, flag.Arg(0), *slowN)
	case *fleetMode && flag.NArg() == 1:
		err = fleetSummarize(os.Stdout, flag.Arg(0))
	case *fleetMode && flag.NArg() == 2:
		err = fleetDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() == 1:
		err = summarize(os.Stdout, flag.Arg(0))
	case flag.NArg() == 2:
		err = diff(os.Stdout, flag.Arg(0), flag.Arg(1))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genet-inspect:", err)
		os.Exit(1)
	}
}

// run is everything genet-inspect loads from one run directory.
type run struct {
	dir    string
	man    obs.Manifest
	events []metrics.Event
	trace  obs.TraceFile
	// final is the closing registry snapshot (the "snapshot" event), nil
	// when the run died before writing one.
	final *metrics.Snapshot
}

func load(dir string) (*run, error) {
	if err := obs.CheckComplete(dir); err != nil {
		return nil, err
	}
	man, err := obs.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, obs.EventsFile))
	if err != nil {
		return nil, err
	}
	events, err := metrics.ReadEvents(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	tf, err := obs.ReadTraceFile(filepath.Join(dir, obs.SpansFile))
	if err != nil {
		return nil, err
	}
	r := &run{dir: dir, man: man, events: events, trace: tf}
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Summary != nil {
			r.final = events[i].Summary
			break
		}
	}
	return r, nil
}

// spanAgg is the aggregate wall-clock of one span name.
type spanAgg struct {
	name  string
	count int
	total float64 // microseconds
}

func (r *run) spanAggregates() []spanAgg {
	byName := map[string]*spanAgg{}
	for _, e := range r.trace.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		a := byName[e.Name]
		if a == nil {
			a = &spanAgg{name: e.Name}
			byName[a.name] = a
		}
		a.count++
		a.total += e.Dur
	}
	out := make([]spanAgg, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].name < out[j].name
	})
	return out
}

// roundDurations returns per-round wall-clock from train/round spans,
// ordered by round index.
func (r *run) roundDurations() []struct {
	round int
	us    float64
} {
	var out []struct {
		round int
		us    float64
	}
	for _, e := range r.trace.TraceEvents {
		if e.Phase != "X" || e.Name != "train/round" {
			continue
		}
		rd, ok := e.Args["round"]
		if !ok {
			continue
		}
		out = append(out, struct {
			round int
			us    float64
		}{int(rd), e.Dur})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].round < out[j].round })
	return out
}

// fieldSeries extracts fields[key] from every event named name, in stream
// order.
func (r *run) fieldSeries(name, key string) []float64 {
	var out []float64
	for _, e := range r.events {
		if e.Name != name {
			continue
		}
		if v, ok := e.Fields[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// recoveryNames are the event names that make up the recovery timeline.
var recoveryNames = map[string]bool{
	"curriculum/rollback":   true,
	"curriculum/quarantine": true,
	"guard/skip":            true,
	"rl/update_skipped":     true,
}

func (r *run) recoveries() []metrics.Event {
	var out []metrics.Event
	for _, e := range r.events {
		if recoveryNames[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

func summarize(w io.Writer, dir string) error {
	r, err := load(dir)
	if err != nil {
		return err
	}
	printSummary(w, r)
	return nil
}

func printSummary(w io.Writer, r *run) {
	m := r.man
	fmt.Fprintf(w, "run %s\n", r.dir)
	fmt.Fprintf(w, "  %s: usecase=%s strategy=%s seed=%d rounds=%d outcome=%s\n",
		m.Tool, m.UseCase, m.Strategy, m.Seed, m.Rounds, orDash(m.Outcome))
	fmt.Fprintf(w, "  kernel=%s go=%s ckpt-version=%d\n", orDash(m.Kernel), orDash(m.GoVersion), m.CheckpointVersion)
	if len(m.Flags) > 0 {
		keys := make([]string, 0, len(m.Flags))
		for k := range m.Flags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("-%s=%s", k, m.Flags[k])
		}
		fmt.Fprintf(w, "  flags: %s\n", strings.Join(parts, " "))
	}

	aggs := r.spanAggregates()
	if len(aggs) > 0 {
		fmt.Fprintf(w, "\nphase wall-clock (%d spans):\n", len(r.trace.TraceEvents))
		for _, a := range aggs {
			fmt.Fprintf(w, "  %-16s %5dx  total %10.1fms  mean %8.2fms\n",
				a.name, a.count, a.total/1e3, a.total/float64(a.count)/1e3)
		}
	}
	if rounds := r.roundDurations(); len(rounds) > 0 {
		fmt.Fprintln(w, "\nper-round wall-clock:")
		for _, rd := range rounds {
			fmt.Fprintf(w, "  round %2d  %10.1fms\n", rd.round, rd.us/1e3)
		}
	}

	fmt.Fprintln(w, "\ntraining trends:")
	printTrend(w, "reward (train/iter)", r.fieldSeries("train/iter", "reward"))
	printTrend(w, "policy loss (rl/update)", r.fieldSeries("rl/update", "policy_loss"))
	printTrend(w, "entropy (rl/update)", r.fieldSeries("rl/update", "entropy"))
	printTrend(w, "approx KL (rl/update)", r.fieldSeries("rl/update", "approx_kl"))

	if recs := r.recoveries(); len(recs) > 0 {
		fmt.Fprintln(w, "\nrecovery timeline:")
		for _, e := range recs {
			fmt.Fprintf(w, "  t=%8.3fs  %-22s %s\n", e.TS, e.Name, fieldsString(e.Fields))
		}
	} else {
		fmt.Fprintln(w, "\nno recoveries recorded")
	}

	if r.final != nil && len(r.final.Counters) > 0 {
		fmt.Fprintln(w, "\nfinal counters:")
		names := make([]string, 0, len(r.final.Counters))
		for n := range r.final.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %d\n", n, r.final.Counters[n])
		}
	}
}

func diff(w io.Writer, dirA, dirB string) error {
	a, err := load(dirA)
	if err != nil {
		return err
	}
	b, err := load(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diff %s vs %s\n", a.dir, b.dir)

	// Manifest / flag differences explain why the runs diverge.
	fmt.Fprintln(w, "\nmanifest:")
	diffLine(w, "usecase", a.man.UseCase, b.man.UseCase)
	diffLine(w, "strategy", a.man.Strategy, b.man.Strategy)
	diffLine(w, "seed", fmt.Sprint(a.man.Seed), fmt.Sprint(b.man.Seed))
	diffLine(w, "rounds", fmt.Sprint(a.man.Rounds), fmt.Sprint(b.man.Rounds))
	diffLine(w, "kernel", a.man.Kernel, b.man.Kernel)
	diffLine(w, "outcome", a.man.Outcome, b.man.Outcome)
	for _, k := range unionKeys(a.man.Flags, b.man.Flags) {
		diffLine(w, "-"+k, a.man.Flags[k], b.man.Flags[k])
	}

	fmt.Fprintln(w, "\nphase wall-clock (total ms, a vs b):")
	aggA, aggB := aggMap(a.spanAggregates()), aggMap(b.spanAggregates())
	for _, n := range unionKeys(aggA, aggB) {
		fmt.Fprintf(w, "  %-16s %10.1f  %10.1f\n", n, aggA[n].total/1e3, aggB[n].total/1e3)
	}

	fmt.Fprintln(w, "\nfinal rewards (last train/iter):")
	ra, rb := r0(a.fieldSeries("train/iter", "reward")), r0(b.fieldSeries("train/iter", "reward"))
	fmt.Fprintf(w, "  %.4f vs %.4f  (delta %+.4f)\n", ra, rb, rb-ra)

	fmt.Fprintln(w, "\nfinal counters (a, b, delta):")
	var ca, cb map[string]int64
	if a.final != nil {
		ca = a.final.Counters
	}
	if b.final != nil {
		cb = b.final.Counters
	}
	for _, n := range unionKeys(ca, cb) {
		fmt.Fprintf(w, "  %-28s %10d %10d %+d\n", n, ca[n], cb[n], cb[n]-ca[n])
	}
	return nil
}

func aggMap(aggs []spanAgg) map[string]spanAgg {
	m := make(map[string]spanAgg, len(aggs))
	for _, a := range aggs {
		m[a.name] = a
	}
	return m
}

func diffLine(w io.Writer, key, va, vb string) {
	marker := " "
	if va != vb {
		marker = "!"
	}
	fmt.Fprintf(w, "  %s %-12s %q vs %q\n", marker, key, va, vb)
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printTrend prints first/last/min/max/mean of a series, or nothing when the
// run emitted no such events.
func printTrend(w io.Writer, label string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	min, max, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range xs {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	fmt.Fprintf(w, "  %-24s n=%-4d first=%.4f last=%.4f min=%.4f max=%.4f mean=%.4f\n",
		label, len(xs), xs[0], xs[len(xs)-1], min, max, sum/float64(len(xs)))
}

func fieldsString(fs map[string]float64) string {
	keys := make([]string, 0, len(fs))
	for k := range fs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, fs[k])
	}
	return strings.Join(parts, " ")
}

func r0(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
