package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareTolerance is the default relative ns/op regression threshold. It is
// a floor: when a baseline carries per-rep samples, the observed spread can
// raise the effective threshold above it (noisy benchmarks get wider gates),
// never lower it.
const compareTolerance = 0.25

// allocSlack is the relative slack on allocs/op and bytes/op. Allocation
// counts are machine-independent and nearly deterministic, so the gate is
// tight; the +2 absolute grace in compareBaselines absorbs single stray
// allocations on tiny counts.
const allocSlack = 0.10

// minRepSpread floors the per-rep spread term of the ns/op gate whenever a
// baseline actually recorded repetitions. On a quiet 1-CPU host the three
// interleaved reps can come out byte-identical, making the observed spread 0
// — but rep spread measures within-run jitter, not the run-to-run noise the
// gate exists to absorb, and a zero spread would collapse the widened
// threshold to the bare tolerance and let the gate flap between reruns of
// the very same binary. The floor only applies when reps exist: a legacy
// baseline without rep samples keeps the bare-tolerance behavior it was
// recorded under.
const minRepSpread = 0.15

// regression is one gate failure found by compareBaselines.
type regression struct {
	Name   string
	Metric string // "allocs/op", "bytes/op", "ns/op", "speedup", or missing
	Old    float64
	New    float64
	Limit  float64
}

// missing is the Metric of a gated benchmark absent from the new run.
const missing = "missing"

func (r regression) String() string {
	if r.Metric == missing {
		return r.Name + ": in the baseline but missing from the new run (retiring it takes a new committed baseline)"
	}
	return fmt.Sprintf("%s: %s regressed %.2f -> %.2f (limit %.2f)", r.Name, r.Metric, r.Old, r.New, r.Limit)
}

// relSpread returns (max-min)/median of the per-rep samples, the baseline's
// own estimate of its run-to-run noise; 0 when there are not enough samples.
func relSpread(reps []float64) float64 {
	if len(reps) < 2 {
		return 0
	}
	lo, hi := reps[0], reps[0]
	for _, x := range reps[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	m := median(append([]float64(nil), reps...))
	if m <= 0 {
		return 0
	}
	return (hi - lo) / m
}

// compareBaselines gates new against old and returns the regressions.
//
// Allocation counts and bytes/op are compared unconditionally — they do not
// depend on the machine. Time per op is compared only when both baselines
// come from the same CPU (model string and core count match); across
// machines a ns/op delta is noise, and the comparison says so on verbose.
// The ns/op threshold is noise-aware: max(tol, 2x the larger per-rep spread
// of the two baselines), so a benchmark that legitimately jitters 30%
// between reps does not hard-fail a 25% gate on a coin flip.
//
// A benchmark only in new has nothing to compare against and does not
// gate. One only in old regresses: a renamed or dropped row would otherwise
// escape the gate, so retiring one takes a newly committed baseline.
func compareBaselines(oldB, newB *microBaseline, tol float64, verbose io.Writer) []regression {
	var regs []regression
	inNew := make(map[string]bool, len(newB.Results))
	for _, r := range newB.Results {
		inNew[r.Name] = true
	}
	oldByName := make(map[string]microResult, len(oldB.Results))
	for _, r := range oldB.Results {
		oldByName[r.Name] = r
		if !inNew[r.Name] {
			regs = append(regs, regression{Name: r.Name, Metric: missing})
		}
	}
	sameCPU := oldB.CPUModel != "" && oldB.CPUModel == newB.CPUModel && oldB.NumCPU == newB.NumCPU
	if !sameCPU && verbose != nil {
		fmt.Fprintf(verbose, "note: baselines from different CPUs (%q/%d vs %q/%d): gating allocations only\n",
			oldB.CPUModel, oldB.NumCPU, newB.CPUModel, newB.NumCPU)
	}
	for _, n := range newB.Results {
		o, ok := oldByName[n.Name]
		if !ok {
			if verbose != nil {
				fmt.Fprintf(verbose, "note: %s: new benchmark, no baseline\n", n.Name)
			}
			continue
		}
		allocLimit := float64(o.AllocsPerOp)*(1+allocSlack) + 2
		if float64(n.AllocsPerOp) > allocLimit {
			regs = append(regs, regression{n.Name, "allocs/op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), allocLimit})
		}
		byteLimit := float64(o.BytesPerOp)*(1+allocSlack) + 256
		if float64(n.BytesPerOp) > byteLimit {
			regs = append(regs, regression{n.Name, "bytes/op", float64(o.BytesPerOp), float64(n.BytesPerOp), byteLimit})
		}
		if sameCPU && o.NsPerOp > 0 {
			spread := relSpread(o.NsPerOpReps)
			if s := relSpread(n.NsPerOpReps); s > spread {
				spread = s
			}
			if (len(o.NsPerOpReps) >= 2 || len(n.NsPerOpReps) >= 2) && spread < minRepSpread {
				spread = minRepSpread
			}
			threshold := tol
			if 2*spread > threshold {
				threshold = 2 * spread
			}
			limit := o.NsPerOp * (1 + threshold)
			if n.NsPerOp > limit {
				regs = append(regs, regression{n.Name, "ns/op", o.NsPerOp, n.NsPerOp, limit})
			} else if verbose != nil {
				fmt.Fprintf(verbose, "ok: %-28s %12.0f -> %12.0f ns/op (limit %.0f)\n", n.Name, o.NsPerOp, n.NsPerOp, limit)
			}
		}
	}
	return append(regs, compareScaling(oldB, newB, tol, verbose)...)
}

// compareScaling gates the speedups of the gated scaling curves. A point
// gates when the baseline has the same curve point and both baselines ran
// with at least as many procs as the point has workers, so the speedup
// measures parallelism both hosts actually had; it regresses when it falls
// below the baseline's by more than tol. A speedup is a ratio of two
// timings on one host, so unlike ns/op it gates across CPU models. A gated
// point of the baseline absent from the new run regresses.
func compareScaling(oldB, newB *microBaseline, tol float64, verbose io.Writer) []regression {
	key := func(p scalingPoint) string { return fmt.Sprintf("%s/workers=%d", p.Name, p.Workers) }
	newPts := make(map[string]bool, len(newB.Scaling))
	for _, p := range newB.Scaling {
		newPts[key(p)] = true
	}
	var regs []regression
	oldPts := make(map[string]scalingPoint, len(oldB.Scaling))
	for _, p := range oldB.Scaling {
		oldPts[key(p)] = p
		if p.Gate && !newPts[key(p)] {
			regs = append(regs, regression{Name: key(p), Metric: missing})
		}
	}
	for _, n := range newB.Scaling {
		name := key(n)
		o, ok := oldPts[name]
		if !n.Gate || !ok || n.Workers > oldB.GOMAXPROCS || n.Workers > newB.GOMAXPROCS {
			continue
		}
		limit := o.Speedup * (1 - tol)
		if n.Speedup < limit {
			regs = append(regs, regression{name, "speedup", o.Speedup, n.Speedup, limit})
		} else if verbose != nil {
			fmt.Fprintf(verbose, "ok: %-28s %12.2f -> %12.2f speedup (limit %.2f)\n", name, o.Speedup, n.Speedup, limit)
		}
	}
	return regs
}

// runCompare loads two BENCH_*.json baselines and gates new against old,
// returning an error (for a non-zero exit) when any metric regressed.
func runCompare(oldPath, newPath string, tol float64) error {
	oldB, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newB, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	regs := compareBaselines(oldB, newB, tol, os.Stderr)
	if len(regs) == 0 {
		fmt.Printf("bench-compare: %s vs %s: no regressions\n", oldPath, newPath)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "REGRESSION", r)
	}
	return fmt.Errorf("%d benchmark regression(s) vs %s", len(regs), oldPath)
}

func loadBaseline(path string) (*microBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b microBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
