package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/microbench"
)

// TestRunMicroKeepsOldBaseline checks that a run which cannot finish leaves
// the file at its destination as it was: an unwritable destination fails
// before any row runs, and a failing row fails the run without writing.
func TestRunMicroKeepsOldBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	ok := microbench.Row{Name: "Ok", Iters: 1, Bench: func(b *testing.B) { ran = true }}
	fails := microbench.Row{Name: "Fails", Iters: 1, Bench: func(b *testing.B) { b.Fatal("boom") }}

	if err := runMicro(filepath.Join(dir, "absent", "BENCH_2.json"), 3, []microbench.Row{ok}, nil); err == nil || ran {
		t.Fatalf("unwritable destination: err %v, row ran %v", err, ran)
	}
	if err := runMicro(path, 3, []microbench.Row{ok, fails}, nil); err == nil || !strings.Contains(err.Error(), "Fails") {
		t.Fatalf("failing row: err %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "old\n" {
		t.Fatalf("baseline after a failed run = %q, %v", data, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed run left files behind: %v", entries)
	}

	if err := runMicro(path, 3, []microbench.Row{ok}, nil); err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(path)
	if err != nil || len(b.Results) != 1 || b.Results[0].Name != "Ok" || b.Results[0].Iterations != 1 || b.Reps != 3 {
		t.Fatalf("written baseline = %+v, %v", b, err)
	}
}

// TestScalingSweepGatesMedianRound checks that the sweep times a curve's
// worker counts in interleaved rounds and that a point's speedup is the
// median of the rounds' ratios, so one slow round does not set it.
func TestScalingSweepGatesMedianRound(t *testing.T) {
	var calls []int
	c := microbench.Curve{Name: "C", Workers: []int{1, 2}, Gate: true, Bench: func(w int) func(b *testing.B) {
		calls = append(calls, w)
		return func(b *testing.B) {}
	}}
	points, err := runScalingSweep([]microbench.Curve{c})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 1, 2, 1, 2}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("worker counts timed in order %v, want %v", calls, want)
	}
	if len(points) != 2 || points[1].Workers != 2 || !points[1].Gate {
		t.Fatalf("points = %+v", points)
	}

	// Round 1 flaps: its 2-worker run is slow (ratio 1.18).
	ns := [][]float64{{1600, 1000}, {1180, 1000}, {1700, 1000}}
	got := curvePoints(c, ns)
	if got[0].Speedup != 1 || got[1].Speedup != 1.6 {
		t.Fatalf("speedups %v, %v; want 1 and the median ratio 1.6", got[0].Speedup, got[1].Speedup)
	}
	if got[0].NsPerOp != 1600 || got[1].NsPerOp != 1000 {
		t.Fatalf("ns/op %v, %v; want the medians 1600 and 1000", got[0].NsPerOp, got[1].NsPerOp)
	}
	old := &microBaseline{GOMAXPROCS: 2, Scaling: []scalingPoint{{Name: "C", Workers: 2, Speedup: 1.68, Gate: true}}}
	if regs := compareScaling(old, &microBaseline{GOMAXPROCS: 2, Scaling: got}, 0.25, nil); len(regs) != 0 {
		t.Fatalf("median of a flapping sweep gated: %v", regs)
	}
}
