package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/obs"
)

// Resume-determinism golden tests: K rounds run straight must be
// bit-identical — in agent weights and optimizer state, report contents,
// curriculum decisions, and search history — to the same K rounds run as
// "checkpoint at K/2, then resume from the file". The comparison is within
// one process, so it holds on whichever nn kernel path (scalar or AVX2-FMA)
// the machine selects; CI's matrix covers both.

func tinyABRHarness(t *testing.T) *ABRHarness {
	t.Helper()
	h, err := NewABRHarness(env.ABRSpace(env.RL1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 2, 40
	return h
}

func tinyCCHarness(t *testing.T) *CCHarness {
	t.Helper()
	h, err := NewCCHarness(env.CCSpace(env.RL1), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h.EnvsPerIter, h.StepsPerIter = 2, 40
	return h
}

func tinyOptions() Options {
	return Options{
		Rounds:        4,
		ItersPerRound: 1,
		BOSteps:       2,
		EnvsPerEval:   1,
		WarmupIters:   1,
	}
}

func agentStateBytes(t *testing.T, h Harness) []byte {
	t.Helper()
	ash, ok := h.(AgentStateHarness)
	if !ok {
		t.Fatalf("harness %T does not capture agent state", h)
	}
	var buf bytes.Buffer
	if err := ash.SaveAgentState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stopAfterPolls returns a Stop that fires on the n-th safe point. Safe
// points are polled after warm-up and then after each round, so n == 3
// stops a run with warm-up after its second completed round.
func stopAfterPolls(n int) func() bool {
	polls := 0
	return func() bool {
		polls++
		return polls >= n
	}
}

func requireReportsEqual(t *testing.T, straight, resumed *Report) {
	t.Helper()
	if straight.Strategy != resumed.Strategy {
		t.Fatalf("strategy %q != %q", straight.Strategy, resumed.Strategy)
	}
	if len(straight.WarmupCurve) != len(resumed.WarmupCurve) {
		t.Fatalf("warm-up curve lengths %d != %d", len(straight.WarmupCurve), len(resumed.WarmupCurve))
	}
	for i := range straight.WarmupCurve {
		if straight.WarmupCurve[i] != resumed.WarmupCurve[i] {
			t.Fatalf("warm-up reward %d: %.17g != %.17g", i, straight.WarmupCurve[i], resumed.WarmupCurve[i])
		}
	}
	if len(straight.Rounds) != len(resumed.Rounds) {
		t.Fatalf("round counts %d != %d", len(straight.Rounds), len(resumed.Rounds))
	}
	for i, a := range straight.Rounds {
		b := resumed.Rounds[i]
		if a.Round != b.Round || a.Score != b.Score || a.SearchEvals != b.SearchEvals {
			t.Fatalf("round %d header differs: %+v vs %+v", i, a, b)
		}
		av, bv := a.Promoted.Values(), b.Promoted.Values()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("round %d promoted config dim %d: %.17g != %.17g", i, j, av[j], bv[j])
			}
		}
		if len(a.TrainRewards) != len(b.TrainRewards) {
			t.Fatalf("round %d reward counts differ", i)
		}
		for j := range a.TrainRewards {
			if a.TrainRewards[j] != b.TrainRewards[j] {
				t.Fatalf("round %d reward %d: %.17g != %.17g", i, j, a.TrainRewards[j], b.TrainRewards[j])
			}
		}
		if !a.Search.Equal(b.Search) {
			t.Fatalf("round %d search trace differs", i)
		}
	}
	aw, bw := straight.Distribution.Weights(), resumed.Distribution.Weights()
	if len(aw) != len(bw) {
		t.Fatalf("distribution promotion counts %d != %d", len(aw), len(bw))
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("distribution weight %d: %v != %v", i, aw[i], bw[i])
		}
	}
}

func runResumeGolden(t *testing.T, opts Options, mkHarness func(t *testing.T) Harness) {
	t.Helper()
	const seed = 11

	// Reference: the whole curriculum in one uninterrupted run.
	straightH := mkHarness(t)
	straight, err := NewTrainer(straightH, opts).RunCheckpointed(ckpt.NewRand(seed), CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if straight.Interrupted {
		t.Fatal("uninterrupted run reported Interrupted")
	}

	// Interrupted: stop after round 1 (two rounds done), checkpoint to disk.
	path := filepath.Join(t.TempDir(), "trainer.ckpt")
	firstH := mkHarness(t)
	first, err := NewTrainer(firstH, opts).RunCheckpointed(ckpt.NewRand(seed), CheckpointOptions{
		Path: path,
		Stop: stopAfterPolls(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted {
		t.Fatal("stopped run did not report Interrupted")
	}
	if got := len(first.Rounds); got != 2 {
		t.Fatalf("stopped after %d rounds, want 2", got)
	}

	// Resume in a fresh harness (fresh agent weights — the checkpoint must
	// fully replace them) and finish the curriculum.
	resumeH := mkHarness(t)
	resumed, err := ResumeTrainer(resumeH, opts, path, CheckpointOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("completed resume reported Interrupted")
	}

	requireReportsEqual(t, straight, resumed)
	a, b := agentStateBytes(t, straightH), agentStateBytes(t, resumeH)
	if !bytes.Equal(a, b) {
		t.Fatal("final agent state differs between straight and checkpoint/resume runs")
	}

	// The final checkpoint written on completion must itself be loadable
	// and re-resumable (it reports a finished run: no rounds left).
	againH := mkHarness(t)
	again, err := ResumeTrainer(againH, opts, path, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireReportsEqual(t, straight, again)
	if !bytes.Equal(agentStateBytes(t, againH), a) {
		t.Fatal("re-loaded final checkpoint carries different agent state")
	}
}

func TestResumeGoldenABR(t *testing.T) {
	runResumeGolden(t, tinyOptions(), func(t *testing.T) Harness { return tinyABRHarness(t) })
}

func TestResumeGoldenCC(t *testing.T) {
	if testing.Short() {
		t.Skip("CC resume golden is slow under -short")
	}
	runResumeGolden(t, tinyOptions(), func(t *testing.T) Harness { return tinyCCHarness(t) })
}

// TestResumeGoldenCL1: a scheduled (CL1) run has the same checkpoint safe
// points as a searched one and resumes bit-exactly under its own strategy.
func TestResumeGoldenCL1(t *testing.T) {
	opts := tinyOptions()
	opts.Schedule = func(round, total int, space *env.Space) env.Config {
		d := space.Dims()[0]
		return space.Default(env.ABRDefaults()).With(d.Name, d.Min+float64(round+1)/float64(total)*(d.Max-d.Min))
	}
	runResumeGolden(t, opts, func(t *testing.T) Harness { return tinyABRHarness(t) })
}

// TestCheckpointedRunMatchesPlainRun pins that checkpointing is pure
// observation: with identical seeds, Run and RunCheckpointed produce
// identical reports and final agents.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	opts := tinyOptions()
	plainH := tinyABRHarness(t)
	plain, err := NewTrainer(plainH, opts).Run(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	ckH := tinyABRHarness(t)
	withCk, err := NewTrainer(ckH, opts).RunCheckpointed(ckpt.NewRand(11), CheckpointOptions{
		Path: filepath.Join(t.TempDir(), "trainer.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireReportsEqual(t, plain, withCk)
	if !bytes.Equal(agentStateBytes(t, plainH), agentStateBytes(t, ckH)) {
		t.Fatal("checkpointing perturbed the training run")
	}
}

// TestResumeRejectsStrategyMismatch: a checkpoint from one objective must
// not silently continue under another.
func TestResumeRejectsStrategyMismatch(t *testing.T) {
	opts := tinyOptions()
	path := filepath.Join(t.TempDir(), "trainer.ckpt")
	h := tinyABRHarness(t)
	if _, err := NewTrainer(h, opts).RunCheckpointed(ckpt.NewRand(11), CheckpointOptions{
		Path: path,
		Stop: stopAfterPolls(2),
	}); err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Objective = BaselinePerfObjective()
	if _, err := ResumeTrainer(tinyABRHarness(t), other, path, CheckpointOptions{}); err == nil {
		t.Fatal("strategy mismatch accepted on resume")
	}
}

// TestResumeRejectsMismatchedAgentConfig: a checkpoint for one use case must
// not load into a harness with a different architecture.
func TestResumeRejectsMismatchedAgentConfig(t *testing.T) {
	opts := tinyOptions()
	path := filepath.Join(t.TempDir(), "trainer.ckpt")
	if _, err := NewTrainer(tinyABRHarness(t), opts).RunCheckpointed(ckpt.NewRand(11), CheckpointOptions{
		Path: path,
		Stop: stopAfterPolls(2),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeTrainer(tinyCCHarness(t), opts, path, CheckpointOptions{}); err == nil {
		t.Fatal("checkpoint for a different agent architecture accepted")
	}
}

// TestResumeKeepsAgentRecorder pins that a checkpoint resume carries every
// runtime attachment over to the restored agent: the flight recorder set
// before the resume must still receive the agent's rl/rollout and rl/update
// spans, one of each per training iteration of the resumed rounds.
func TestResumeKeepsAgentRecorder(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Harness
	}{
		{"abr", func(t *testing.T) Harness { return tinyABRHarness(t) }},
		{"cc", func(t *testing.T) Harness { return tinyCCHarness(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tinyOptions()
			path := filepath.Join(t.TempDir(), "trainer.ckpt")
			if _, err := NewTrainer(tc.mk(t), opts).RunCheckpointed(ckpt.NewRand(11), CheckpointOptions{
				Path: path,
				Stop: stopAfterPolls(3),
			}); err != nil {
				t.Fatal(err)
			}

			rec := obs.NewRecorder(4096)
			opts.Recorder = rec
			if _, err := ResumeTrainer(tc.mk(t), opts, path, CheckpointOptions{}); err != nil {
				t.Fatal(err)
			}
			spans := map[string]int{}
			for _, e := range rec.Events() {
				spans[e.Name]++
			}
			iters := spans["train/iter"]
			if iters == 0 {
				t.Fatal("resumed run recorded no train/iter spans")
			}
			for _, name := range []string{"rl/rollout", "rl/update"} {
				if spans[name] != iters {
					t.Errorf("%s spans = %d after resume, want one per train/iter (%d)", name, spans[name], iters)
				}
			}
		})
	}
}
