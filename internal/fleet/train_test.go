package fleet

import (
	"os"
	"testing"

	"github.com/genet-go/genet/internal/core"
)

// tinyBudget is the smallest budget that still runs a warm-up, a curriculum
// round with a BO search, and a traditional run.
var tinyBudget = Budget{Rounds: 2, ItersPerRound: 1, BOSteps: 1, EnvsPerEval: 1, EnvsPerIter: 2, StepsPerIter: 40, Warmup: 3}

// TestTrainWithoutModelWritesNothing: an empty Model trains in memory and
// returns the trained harness without writing a file, for a traditional
// and a curriculum mode alike.
func TestTrainWithoutModelWritesNothing(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, mode := range []string{"rl3", "genet"} {
		tr, err := (&TrainSpec{Env: "lb", Mode: mode, Seed: 1, Budget: tinyBudget}).Train()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if tr.Harness == nil || core.AgentOf(tr.Harness) == (core.Agent{}) {
			t.Fatalf("%s: no trained harness returned", mode)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("%s: wrote %d file(s), first %s", mode, len(ents), ents[0].Name())
		}
	}
}

// TestEditRunsBeforeBudgetResolves: Edit sees the fresh harness and options
// before a traditional mode resolves its equal budget from them, so an edit
// that disables the warm-up shortens rl3 to Rounds × ItersPerRound
// iterations.
func TestEditRunsBeforeBudgetResolves(t *testing.T) {
	var edited core.Harness
	spec := TrainSpec{Env: "lb", Mode: "rl3", Seed: 1, Budget: tinyBudget,
		Edit: func(h core.Harness, o *core.Options) {
			edited = h
			o.WarmupIters = -1
		}}
	tr, err := spec.Train()
	if err != nil {
		t.Fatal(err)
	}
	if want := tinyBudget.Rounds * tinyBudget.ItersPerRound; len(tr.Curve) != want {
		t.Fatalf("curve has %d iterations, want %d (warm-up not disabled)", len(tr.Curve), want)
	}
	if edited != tr.Harness {
		t.Fatal("Edit did not receive the trained harness")
	}
}
