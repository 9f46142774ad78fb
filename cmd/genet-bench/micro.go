package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/microbench"
)

// microResult is one row of the BENCH_*.json baseline. NsPerOp and the
// other headline numbers are medians over the interleaved repetitions;
// NsPerOpReps keeps the raw per-rep values so a later -compare can derive a
// noise-aware tolerance from the observed spread.
type microResult struct {
	Name        string    `json:"name"`
	Iterations  int       `json:"iterations"`
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	NsPerOpReps []float64 `json:"ns_per_op_reps,omitempty"`
}

// scalingPoint is one point of a multi-core scaling curve: one benchmark
// at a fixed worker count (see microbench.Curves).
type scalingPoint struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`        // vs the 1-worker point of the same curve
	Gate    bool    `json:"gate,omitempty"` // -compare gates Speedup (see compareScaling)
}

// microBaseline captures the machine context alongside the numbers so
// baselines from different hosts are not compared blindly: -compare gates
// time-per-op only when CPUModel and NumCPU match, and allocation counts
// (machine-independent) always.
type microBaseline struct {
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	CPUModel   string         `json:"cpu_model,omitempty"`
	Reps       int            `json:"reps,omitempty"`
	Results    []microResult  `json:"results"`
	Scaling    []scalingPoint `json:"scaling,omitempty"`
}

// cpuModel returns the CPU model string from /proc/cpuinfo (empty when
// unavailable, e.g. off Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianInt64 is median for int64 samples.
func medianInt64(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n == 0 {
		return 0
	}
	return xs[n/2]
}

// runMicro benchmarks rows and curves (genet-bench -micro passes
// microbench.Rows and microbench.Curves) through testing.Benchmark and
// writes the JSON baseline to outPath, so the perf trajectory of the
// training loop is tracked in-repo from PR to PR.
func runMicro(outPath string, reps int, rows []microbench.Row, curves []microbench.Curve) error {
	if reps < 3 {
		reps = 3 // the noise-aware compare needs a spread estimate
	}
	// Fail on an unwritable destination before spending minutes
	// benchmarking. The baseline itself is written atomically once every
	// run is done, so a file already at outPath survives a failed or
	// interrupted run.
	probe, err := os.CreateTemp(filepath.Dir(outPath), filepath.Base(outPath)+".tmp-*")
	if err != nil {
		return err
	}
	probe.Close()
	os.Remove(probe.Name())

	base := microBaseline{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Reps:       reps,
	}
	// Repetitions are interleaved — the full suite runs end to end reps
	// times, not each benchmark reps times back to back — so slow drift in
	// machine state (thermal, cache pollution from another tenant) lands
	// across all benchmarks instead of biasing one, and the per-rep spread
	// honestly reflects run-to-run noise.
	type agg struct {
		iters  int
		ns     []float64
		bytes  []int64
		allocs []int64
	}
	aggs := make([]agg, len(rows))
	for rep := 0; rep < reps; rep++ {
		for i, row := range rows {
			fmt.Fprintf(os.Stderr, "micro %s (rep %d/%d)...\n", row.Name, rep+1, reps)
			r := benchmark(row.Bench, row.Iters)
			if r.N == 0 {
				return fmt.Errorf("micro %s failed", row.Name)
			}
			a := &aggs[i]
			a.iters = r.N
			a.ns = append(a.ns, float64(r.T.Nanoseconds())/float64(r.N))
			a.bytes = append(a.bytes, r.AllocedBytesPerOp())
			a.allocs = append(a.allocs, r.AllocsPerOp())
		}
	}
	for i, row := range rows {
		a := &aggs[i]
		repsCopy := append([]float64(nil), a.ns...)
		base.Results = append(base.Results, microResult{
			Name:        row.Name,
			Iterations:  a.iters,
			NsPerOp:     median(a.ns),
			BytesPerOp:  medianInt64(a.bytes),
			AllocsPerOp: medianInt64(a.allocs),
			NsPerOpReps: repsCopy,
		})
	}
	if base.Scaling, err = runScalingSweep(curves); err != nil {
		return err
	}

	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(outPath, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// benchmark runs fn through testing.Benchmark: for exactly iters
// iterations when iters > 0, for the adaptive b.N otherwise.
func benchmark(fn func(b *testing.B), iters int) testing.BenchmarkResult {
	if iters <= 0 {
		return testing.Benchmark(fn)
	}
	// testing.Benchmark reads its iteration budget from -test.benchtime,
	// which testing.Init registers; "Nx" means exactly N iterations.
	testing.Init()
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", iters)); err != nil {
		panic(err)
	}
	defer flag.Set("test.benchtime", old)
	return testing.Benchmark(fn)
}

// scalingRounds is how many interleaved rounds runScalingSweep times a
// curve in: one slow run on a shared host then moves a single round's
// ratio, not the gated median.
const scalingRounds = 3

// runScalingSweep benchmarks every curve at its worker counts, in
// scalingRounds rounds that each time every worker count once, and reduces
// the rounds with curvePoints. On a single-core machine the curves are
// flat by construction; the committed BENCH_*.json records NumCPU and
// GOMAXPROCS so flat curves are interpretable.
func runScalingSweep(curves []microbench.Curve) ([]scalingPoint, error) {
	var points []scalingPoint
	for _, c := range curves {
		ns := make([][]float64, scalingRounds)
		for r := range ns {
			for _, w := range c.Workers {
				fmt.Fprintf(os.Stderr, "scaling %s workers=%d (round %d/%d)...\n", c.Name, w, r+1, scalingRounds)
				res := testing.Benchmark(c.Bench(w))
				if res.N == 0 {
					return nil, fmt.Errorf("scaling %s workers=%d failed", c.Name, w)
				}
				ns[r] = append(ns[r], float64(res.T.Nanoseconds())/float64(res.N))
			}
		}
		points = append(points, curvePoints(c, ns)...)
	}
	return points, nil
}

// curvePoints reduces rounds of timings of curve c, ns[r][i] being round
// r's ns/op at c.Workers[i], to the curve's points: NsPerOp is the median
// over rounds, and Speedup the median over rounds of the ratio of the
// round's first (1-worker) time to its time at the point.
func curvePoints(c microbench.Curve, ns [][]float64) []scalingPoint {
	points := make([]scalingPoint, len(c.Workers))
	for i, w := range c.Workers {
		var times, ratios []float64
		for _, round := range ns {
			times = append(times, round[i])
			ratios = append(ratios, round[0]/round[i])
		}
		points[i] = scalingPoint{Name: c.Name, Workers: w, NsPerOp: median(times), Speedup: median(ratios), Gate: c.Gate}
	}
	return points
}
