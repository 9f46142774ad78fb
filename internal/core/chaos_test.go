package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/nn"
)

// Chaos goldens: the training-health guard must (a) be bit-invisible on a
// fault-free run, and (b) carry a heavily faulted run to completion with
// the recoveries on the record — and do both reproducibly, because the
// fault schedule is a pure function of (seed, site, call count).

func chaosGuardConfig() guard.Config {
	return guard.Config{
		RollbackAfter:   2,
		MaxRollbacks:    2,
		QuarantineAfter: 2,
	}
}

// TestGuardedZeroFaultRunBitIdentical is the wiring half of the
// determinism keystone: arming the guard (with no injector) must leave
// every float of a healthy run untouched — same report, same final agent —
// because a healthy guard only observes.
func TestGuardedZeroFaultRunBitIdentical(t *testing.T) {
	opts := tinyOptions()
	plainH := tinyABRHarness(t)
	plain, err := NewTrainer(plainH, opts).Run(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}

	guardedOpts := tinyOptions()
	guardedOpts.Guard = guard.New(chaosGuardConfig())
	guardedH := tinyABRHarness(t)
	guarded, err := NewTrainer(guardedH, guardedOpts).Run(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}

	requireReportsEqual(t, plain, guarded)
	if !bytes.Equal(agentStateBytes(t, plainH), agentStateBytes(t, guardedH)) {
		t.Fatal("arming the guard perturbed a fault-free run")
	}
	for _, r := range guarded.Rounds {
		if len(r.Recoveries) != 0 {
			t.Fatalf("fault-free round %d has recovery events: %+v", r.Round, r.Recoveries)
		}
	}
	st := guardedOpts.Guard.Snapshot()
	if st.Skipped != 0 || st.NonFinite != 0 || st.Rollbacks != 0 || st.Quarantines != 0 {
		t.Fatalf("guard intervened on a healthy run: %s", st)
	}
	if st.Updates == 0 {
		t.Fatal("guard never observed an update — wiring broken")
	}
}

// chaosRun executes one fully-instrumented chaos run: every injection site
// armed, guard recovery policy on, checkpointing enabled (so rollback has
// somewhere to go). It returns the report, the final agent bytes, and the
// guard's counters.
func chaosRun(t *testing.T) (*Report, []byte, guard.Stats) {
	t.Helper()
	in := faults.New(99)
	in.Enable(faults.GradPoison, 2)
	in.Enable(faults.EnvStepPanic, 200)
	in.Enable(faults.TraceCorrupt, 150)
	in.Enable(faults.BOQueryFail, 4)
	in.Enable(faults.CkptWriteFail, 8)

	opts := tinyOptions()
	opts.Guard = guard.New(chaosGuardConfig())
	opts.Faults = in

	h := tinyABRHarness(t)
	rep, err := NewTrainer(h, opts).RunCheckpointed(ckpt.NewRand(11), CheckpointOptions{
		Path: filepath.Join(t.TempDir(), "chaos.ckpt"),
	})
	if err != nil {
		t.Fatalf("chaos run did not survive: %v", err)
	}
	if in.TotalFired() == 0 {
		t.Fatal("no faults fired — chaos run tested nothing")
	}
	return rep, agentStateBytes(t, h), opts.Guard.Snapshot()
}

func allRecoveries(rep *Report) []RecoveryEvent {
	var out []RecoveryEvent
	for _, r := range rep.Rounds {
		out = append(out, r.Recoveries...)
	}
	return out
}

// TestChaosGoldenCompletesWithRecoveries is the chaos half of the
// keystone: with every injection site firing, the guarded run completes
// the full curriculum, the interventions are on the record, and an
// identically-seeded rerun reproduces the whole thing bit for bit.
func TestChaosGoldenCompletesWithRecoveries(t *testing.T) {
	rep, agentA, st := chaosRun(t)
	if got := len(rep.Rounds); got != tinyOptions().Rounds {
		t.Fatalf("chaos run completed %d rounds, want %d", got, tinyOptions().Rounds)
	}
	recs := allRecoveries(rep)
	if len(recs) == 0 {
		t.Fatal("faulted run recorded no recovery events")
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	// Gradient poisoning at every-2 makes skipped updates a certainty;
	// everything else depends on the (deterministic) schedule.
	if kinds["skipped-updates"] == 0 {
		t.Fatalf("no skipped-updates events among %+v", kinds)
	}
	if st.NonFinite == 0 || st.Skipped == 0 {
		t.Fatalf("guard saw no poisoned updates: %s", st)
	}

	// Chaos is replayable: same seeds, same faults, same recoveries, same
	// final weights.
	rep2, agentB, st2 := chaosRun(t)
	requireReportsEqual(t, rep, rep2)
	recs2 := allRecoveries(rep2)
	if len(recs) != len(recs2) {
		t.Fatalf("recovery counts differ between identical chaos runs: %d vs %d", len(recs), len(recs2))
	}
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("recovery %d differs: %+v vs %+v", i, recs[i], recs2[i])
		}
	}
	if !bytes.Equal(agentA, agentB) {
		t.Fatal("identical chaos runs produced different final agents")
	}
	if st != st2 {
		t.Fatalf("guard counters differ between identical chaos runs: %s vs %s", st, st2)
	}
}

// chaosPin is one pinned chaos run: the SHA-256 of the final agent state,
// the guard's counters and every recovery event.
type chaosPin struct {
	StateSHA256 string          `json:"state_sha256"`
	Guard       string          `json:"guard"`
	Recoveries  []RecoveryEvent `json:"recoveries"`
}

// goldenChaos pins the guarded, fault-injected runs across commits: chaosRun
// (every site armed) and quarantineRun (frequent env-step panics, so
// rollouts are contained). The rerun comparisons only prove a run replays
// itself; this proves the armed rollout path still computes what it did.
type goldenChaos struct {
	Kernel string              `json:"kernel"`
	Runs   map[string]chaosPin `json:"runs"`
}

const goldenChaosPath = "testdata/golden_chaos.json"

func pinChaos(rep *Report, state []byte, st guard.Stats) chaosPin {
	sum := sha256.Sum256(state)
	return chaosPin{StateSHA256: hex.EncodeToString(sum[:]), Guard: st.String(), Recoveries: allRecoveries(rep)}
}

// TestChaosGoldenPinned compares both chaos runs against the committed
// golden, exactly. Refresh intentionally with
//
//	go test ./internal/core/ -run TestChaosGoldenPinned -update
func TestChaosGoldenPinned(t *testing.T) {
	got := goldenChaos{Kernel: nn.KernelName(), Runs: map[string]chaosPin{}}
	got.Runs["chaos"] = pinChaos(chaosRun(t))
	rep, state, st, _ := quarantineRun(t)
	got.Runs["quarantine"] = pinChaos(rep, state, st)
	if *updateGolden {
		writeGolden(t, goldenChaosPath, got)
		return
	}
	var want goldenChaos
	readGolden(t, goldenChaosPath, &want)
	if want.Kernel != got.Kernel {
		t.Skipf("chaos golden recorded on %q kernels, this machine runs %q", want.Kernel, got.Kernel)
	}
	for name, w := range want.Runs {
		g := got.Runs[name]
		if g.Guard != w.Guard {
			t.Fatalf("%s: guard stats = %s, golden %s", name, g.Guard, w.Guard)
		}
		if len(g.Recoveries) != len(w.Recoveries) {
			t.Fatalf("%s: %d recovery events, golden has %d:\n%+v", name, len(g.Recoveries), len(w.Recoveries), g.Recoveries)
		}
		for i := range w.Recoveries {
			if g.Recoveries[i] != w.Recoveries[i] {
				t.Fatalf("%s: recovery %d = %+v, golden %+v", name, i, g.Recoveries[i], w.Recoveries[i])
			}
		}
		if g.StateSHA256 != w.StateSHA256 {
			t.Fatalf("%s: final agent state sha256 = %s, golden %s (bit-exact determinism broken)", name, g.StateSHA256, w.StateSHA256)
		}
	}
}

// quarantineRun drives the quarantine path hard (frequent env-step panics,
// contained by the guard) and returns the report, the final agent bytes,
// the guard's counters and the run's checkpoint path.
func quarantineRun(t *testing.T) (*Report, []byte, guard.Stats, string) {
	t.Helper()
	in := faults.New(5)
	in.Enable(faults.EnvStepPanic, 30)

	opts := tinyOptions()
	opts.Guard = guard.New(guard.Config{QuarantineAfter: 2})
	opts.Faults = in

	path := filepath.Join(t.TempDir(), "quarantine.ckpt")
	h := tinyABRHarness(t)
	rep, err := NewTrainer(h, opts).RunCheckpointed(ckpt.NewRand(3), CheckpointOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	return rep, agentStateBytes(t, h), opts.Guard.Snapshot(), path
}

// TestChaosQuarantineAndCheckpointRoundTrip drives the quarantine path
// hard (frequent env-step panics) and pins that quarantine state survives
// a checkpoint/resume round trip.
func TestChaosQuarantineAndCheckpointRoundTrip(t *testing.T) {
	rep, _, _, path := quarantineRun(t)
	nq := rep.Distribution.NumQuarantined()
	if nq == 0 {
		t.Skip("schedule produced no quarantine at this seed; covered by the rl-level tests")
	}
	kinds := map[string]int{}
	for _, r := range allRecoveries(rep) {
		kinds[r.Kind]++
	}
	if kinds["quarantine"] != nq {
		t.Fatalf("%d quarantines in distribution but %d quarantine events", nq, kinds["quarantine"])
	}

	// The final checkpoint must restore the quarantine list bit-exactly.
	resumeOpts := tinyOptions()
	resumeOpts.Guard = guard.New(guard.Config{QuarantineAfter: 2})
	again, err := ResumeTrainer(tinyABRHarness(t), resumeOpts, path, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Distribution.NumQuarantined(); got != nq {
		t.Fatalf("resume restored %d quarantines, want %d", got, nq)
	}
	qa, qb := rep.Distribution.Quarantines(), again.Distribution.Quarantines()
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("quarantine %d differs after resume: %+v vs %+v", i, qa[i], qb[i])
		}
	}
}
