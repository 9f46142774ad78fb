package genet

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// The facade must expose a complete, working workflow without touching the
// internal packages.

func TestFacadeSpaces(t *testing.T) {
	for _, s := range []*Space{ABRSpace(RL1), CCSpace(RL2), LBSpace(RL3)} {
		if s.NumDims() < 5 {
			t.Fatalf("space has %d dims", s.NumDims())
		}
	}
	if len(ABRDefaults()) == 0 || len(CCDefaults()) == 0 || len(LBDefaults()) == 0 {
		t.Fatal("defaults missing")
	}
}

func TestFacadeHarnessConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewABRHarness(ABRSpace(RL1), rng); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCCHarness(CCSpace(RL1), rng); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLBHarness(LBSpace(RL1), rng); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, err := NewABRHarness(ABRSpace(RL2), rng)
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 2, 60
	rep, err := NewTrainer(h, Options{
		Rounds: 1, ItersPerRound: 1, BOSteps: 2, EnvsPerEval: 1, WarmupIters: 1,
	}).Run(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 1 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	curve := TrainTraditional(h, Options{Rounds: 1, ItersPerRound: 1, WarmupIters: 1}, rng)
	if len(curve) != 2 {
		t.Fatalf("traditional curve = %d", len(curve))
	}
}

// TestFacadeCheckpointResume drives the checkpoint workflow end to end
// through the facade only: run with checkpointing, stop early, resume from
// the file in a fresh harness, and finish the curriculum.
func TestFacadeCheckpointResume(t *testing.T) {
	opts := Options{Rounds: 2, ItersPerRound: 1, BOSteps: 2, EnvsPerEval: 1, WarmupIters: 1}
	mk := func() *ABRHarness {
		h, err := NewABRHarness(ABRSpace(RL1), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		h.EnvsPerIter, h.StepsPerIter = 2, 40
		return h
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	polls := 0
	rep, err := NewTrainer(mk(), opts).RunCheckpointed(NewRand(6), CheckpointOptions{
		Path: path,
		Stop: func() bool { polls++; return polls >= 2 }, // stop after round 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || len(rep.Rounds) != 1 {
		t.Fatalf("interrupted=%v rounds=%d, want true/1", rep.Interrupted, len(rep.Rounds))
	}
	final, err := ResumeTrainer(mk(), opts, path, CheckpointOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if final.Interrupted || len(final.Rounds) != opts.Rounds {
		t.Fatalf("interrupted=%v rounds=%d, want false/%d", final.Interrupted, len(final.Rounds), opts.Rounds)
	}
}

func TestFacadeObjectives(t *testing.T) {
	for _, obj := range []Objective{
		GapToBaselineObjective(), GapToOptimumObjective(), BaselinePerfObjective(),
	} {
		if obj.Name == "" || obj.Score == nil {
			t.Fatalf("objective incomplete: %+v", obj)
		}
	}
}

func TestFacadeTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := GenerateTraceSet(SpecCellular, 3, rng)
	if set.Len() != 3 {
		t.Fatalf("set len = %d", set.Len())
	}
	for _, tr := range set.Traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeDistribution(t *testing.T) {
	space := ABRSpace(RL3)
	d := NewDistribution(space)
	rng := rand.New(rand.NewSource(4))
	cfg := space.Sample(rng)
	if err := d.Promote(cfg, 0.3); err != nil {
		t.Fatal(err)
	}
	if d.NumPromoted() != 1 {
		t.Fatal("promotion lost")
	}
}
