package main

import (
	"strings"
	"testing"
)

func baseWith(results ...microResult) *microBaseline {
	return &microBaseline{CPUModel: "TestCPU", NumCPU: 8, Results: results}
}

func TestCompareNoRegression(t *testing.T) {
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4096})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1100, AllocsPerOp: 10, BytesPerOp: 4096})
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 4096})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1000, AllocsPerOp: 40, BytesPerOp: 4096})
	regs := compareBaselines(oldB, newB, 0.25, nil)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareAllocAbsoluteGrace(t *testing.T) {
	// 0 -> 2 allocs passes (the +2 grace); 0 -> 3 fails.
	oldB := baseWith(microResult{Name: "A", AllocsPerOp: 0})
	if regs := compareBaselines(oldB, baseWith(microResult{Name: "A", AllocsPerOp: 2}), 0.25, nil); len(regs) != 0 {
		t.Fatalf("grace failed: %v", regs)
	}
	if regs := compareBaselines(oldB, baseWith(microResult{Name: "A", AllocsPerOp: 3}), 0.25, nil); len(regs) != 1 {
		t.Fatalf("want regression past grace, got %v", regs)
	}
}

func TestCompareNsRegressionSameCPU(t *testing.T) {
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1400})
	regs := compareBaselines(oldB, newB, 0.25, nil)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression, got %v", regs)
	}
}

func TestCompareNsSkippedAcrossCPUs(t *testing.T) {
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000})
	newB := baseWith(microResult{Name: "A", NsPerOp: 9000})
	newB.CPUModel = "OtherCPU"
	var sb strings.Builder
	if regs := compareBaselines(oldB, newB, 0.25, &sb); len(regs) != 0 {
		t.Fatalf("cross-CPU ns gating should be off: %v", regs)
	}
	if !strings.Contains(sb.String(), "different CPUs") {
		t.Fatalf("missing cross-CPU note in %q", sb.String())
	}
}

func TestCompareNoiseWidensThreshold(t *testing.T) {
	// Old reps spread ~50% around 1000: threshold becomes 2*0.5 = 100%,
	// so a 1.4x "regression" that would fail the 25% floor passes.
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000, NsPerOpReps: []float64{750, 1000, 1250}})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1400})
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 0 {
		t.Fatalf("noise-aware threshold should absorb this: %v", regs)
	}
	// But a 2.2x slowdown still fails the widened gate.
	newB.Results[0].NsPerOp = 2200
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 1 {
		t.Fatalf("want regression past widened gate, got %v", regs)
	}
}

func TestCompareIdenticalRepsFloored(t *testing.T) {
	// All reps byte-identical: the observed spread is 0, but the floor keeps
	// the threshold at max(tol, 2*minRepSpread) = 30%, so a 28% rerun wobble
	// on a quiet 1-CPU host cannot flap the gate...
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000, NsPerOpReps: []float64{1000, 1000, 1000}})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1280, NsPerOpReps: []float64{1280, 1280, 1280}})
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 0 {
		t.Fatalf("spread floor should absorb this: %v", regs)
	}
	// ...while a real slowdown past the floored threshold still fails.
	newB.Results[0].NsPerOp = 1400
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want ns/op regression past floored gate, got %v", regs)
	}
}

func TestCompareNoRepsKeepsBareTolerance(t *testing.T) {
	// Legacy baselines without rep samples keep the unfloored behavior:
	// threshold is the bare tolerance, so 28% over fails a 25% gate.
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1280})
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 1 {
		t.Fatalf("legacy rep-less baseline must keep bare tol, got %v", regs)
	}
}

func TestCompareNewBenchmarkSkipped(t *testing.T) {
	oldB := baseWith(microResult{Name: "A", NsPerOp: 1000})
	newB := baseWith(
		microResult{Name: "A", NsPerOp: 1000},
		microResult{Name: "B", NsPerOp: 99999, AllocsPerOp: 1e6})
	if regs := compareBaselines(oldB, newB, 0.25, nil); len(regs) != 0 {
		t.Fatalf("new benchmark must not gate: %v", regs)
	}
}

func TestCompareRetiredBenchmarkRegresses(t *testing.T) {
	oldB := baseWith(
		microResult{Name: "A", NsPerOp: 1000},
		microResult{Name: "Gone", NsPerOp: 1000})
	newB := baseWith(microResult{Name: "A", NsPerOp: 1000})
	regs := compareBaselines(oldB, newB, 0.25, nil)
	if len(regs) != 1 || regs[0].Name != "Gone" || regs[0].Metric != missing {
		t.Fatalf("want one missing-row regression for Gone, got %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "missing from the new run") {
		t.Fatalf("missing-row regression reads %q", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if s := relSpread([]float64{900, 1000, 1100}); s < 0.19 || s > 0.21 {
		t.Fatalf("relSpread = %v", s)
	}
}

func TestCompareScalingSpeedupGates(t *testing.T) {
	curve := func(procs int, speedup float64, gate bool) *microBaseline {
		b := baseWith()
		b.GOMAXPROCS = procs
		b.Scaling = []scalingPoint{
			{Name: "C", Workers: 1, Speedup: 1, Gate: gate},
			{Name: "C", Workers: 2, Speedup: speedup, Gate: gate},
		}
		return b
	}
	regs := compareBaselines(curve(2, 1.6, true), curve(4, 1.1, true), 0.25, nil)
	if len(regs) != 1 || regs[0].Metric != "speedup" || regs[0].Name != "C/workers=2" {
		t.Fatalf("want one speedup regression at 2 workers, got %v", regs)
	}
	if regs := compareBaselines(curve(2, 1.6, true), curve(2, 1.3, true), 0.25, nil); len(regs) != 0 {
		t.Fatalf("speedup within tolerance gated: %v", regs)
	}
	// An ungated curve, or a host with fewer procs than workers, never gates.
	if regs := compareBaselines(curve(2, 1.6, false), curve(2, 1.0, false), 0.25, nil); len(regs) != 0 {
		t.Fatalf("ungated curve gated: %v", regs)
	}
	if regs := compareBaselines(curve(2, 1.6, true), curve(1, 1.0, true), 0.25, nil); len(regs) != 0 {
		t.Fatalf("1-proc run gated on a 2-worker speedup: %v", regs)
	}
	// A gated point dropped from the new run regresses; an ungated one does not.
	dropped := curve(2, 1.6, true)
	dropped.Scaling = dropped.Scaling[:1]
	if regs := compareBaselines(curve(2, 1.6, true), dropped, 0.25, nil); len(regs) != 1 || regs[0].Name != "C/workers=2" || regs[0].Metric != missing {
		t.Fatalf("want one missing-point regression at 2 workers, got %v", regs)
	}
	dropped.Scaling = nil
	if regs := compareBaselines(curve(2, 1.6, false), dropped, 0.25, nil); len(regs) != 0 {
		t.Fatalf("dropped ungated curve gated: %v", regs)
	}
}
