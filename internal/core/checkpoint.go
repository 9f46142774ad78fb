package core

import (
	"bytes"
	"fmt"
	"os"

	"github.com/genet-go/genet/internal/bo"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/faults"
)

// Checkpoint/resume for the curriculum trainer.
//
// A checkpoint is a ckpt container with three sections:
//
//   - "agent":   the harness agent's lossless training state
//     (rl SaveState stream — networks, log-std, Adam moments/counters);
//   - "trainer": gob of trainerWire — curriculum position (warm-up flag,
//     promotion history with weights, per-round reports including the full
//     search traces) under its own version number;
//   - "rng":     gob of ckpt.RandState, the exact position of the run's
//     random stream.
//
// Files are written atomically (temp + rename) at safe points only — after
// warm-up and after each completed round — so an interrupt or crash at any
// instant leaves either the previous complete checkpoint or the new one,
// never a torn file. Resuming re-enters the round loop at len(Rounds) with
// the restored agent, distribution, and rng; because every component
// round-trips bit-exactly, a resumed run reproduces the uninterrupted run's
// weights, metrics, and curriculum decisions bit for bit (within one kernel
// path — see nn.KernelName).
//
// Version history: v1 had no quarantine list and no per-round recovery
// events; v2 added both. Readers accept 1..trainerStateVersion (a v1 file
// simply restores with no quarantines).
const trainerStateVersion = 2

// TrainerStateVersion is the trainer-state schema version this build writes;
// run manifests record it so genet-inspect can flag cross-version diffs.
const TrainerStateVersion = trainerStateVersion

// Checkpoint section names.
const (
	secAgent   = "agent"
	secTrainer = "trainer"
	secRNG     = "rng"
)

// CheckpointOptions configure a checkpointed run.
type CheckpointOptions struct {
	// Path is the checkpoint file. Empty disables persistence (Stop still
	// works, the run just cannot be resumed).
	Path string
	// Every writes the checkpoint after every Every-th completed round
	// (default 1 = every round). The post-warm-up state is always written
	// so a crash in the first round never repeats warm-up.
	Every int
	// Stop is polled at each safe point; returning true ends the run
	// early with Report.Interrupted set, after writing a final
	// checkpoint. Signal handlers set this for graceful ^C.
	Stop func() bool
}

// checkpointer drives persistence from inside the run loop. A nil
// checkpointer (plain Run) makes every hook a no-op.
type checkpointer struct {
	opts CheckpointOptions
	rng  *ckpt.Rand
}

// safePoint runs after warm-up (round == -1) and after each completed
// round. It reports whether the run should stop.
func (c *checkpointer) safePoint(t *Trainer, st *runState, round int) (stop bool, err error) {
	if c == nil {
		return false, nil
	}
	if c.opts.Stop != nil && c.opts.Stop() {
		st.rep.Interrupted = true
		if c.opts.Path != "" {
			if err := t.writeCheckpoint(c.opts.Path, st, c.rng); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	if c.opts.Path == "" {
		return false, nil
	}
	every := c.opts.Every
	if every <= 0 {
		every = 1
	}
	if round == -1 || (round+1)%every == 0 {
		return false, t.writeCheckpoint(c.opts.Path, st, c.rng)
	}
	return false, nil
}

// rollbackPath returns the checkpoint file the guard's rollback policy can
// restore, or "" when rollback is unavailable (plain Run, no path
// configured, or nothing written yet).
func (c *checkpointer) rollbackPath() string {
	if c == nil || c.opts.Path == "" {
		return ""
	}
	if _, err := os.Stat(c.opts.Path); err != nil {
		return ""
	}
	return c.opts.Path
}

// finish persists the completed run so the final model and report survive.
func (c *checkpointer) finish(t *Trainer, st *runState) error {
	if c == nil || c.opts.Path == "" {
		return nil
	}
	return t.writeCheckpoint(c.opts.Path, st, c.rng)
}

// RunCheckpointed is Run with crash safety: the full trainer state is
// persisted at every safe point per co, and co.Stop can end the run early
// with a resumable checkpoint. The rng must be a ckpt.Rand so its stream
// position lands in the checkpoint.
func (t *Trainer) RunCheckpointed(rng *ckpt.Rand, co CheckpointOptions) (*Report, error) {
	return t.runLoop(t.newRunState(), rng.Rand, &checkpointer{opts: co, rng: rng})
}

// ResumeRun continues the run stored at path: the agent, curriculum
// position, and rng stream are restored from the checkpoint and the round
// loop re-enters where it left off, continuing to checkpoint per co. The
// returned Report covers the whole run including rounds completed before
// the interruption.
func (t *Trainer) ResumeRun(path string, co CheckpointOptions) (*Report, error) {
	st, rng, err := t.restore(path)
	if err != nil {
		return nil, err
	}
	return t.runLoop(st, rng.Rand, &checkpointer{opts: co, rng: rng})
}

// ResumeTrainer builds a trainer over h and opts and continues the run
// stored at path.
func ResumeTrainer(h Harness, opts Options, path string, co CheckpointOptions) (*Report, error) {
	return NewTrainer(h, opts).ResumeRun(path, co)
}

// Checkpoint persists rep's state to path atomically, outside the run loop.
// Callers holding a finished (or interrupted) report use it to write a
// checkpoint at a path of their choosing; periodic persistence during a run
// is RunCheckpointed's job.
func (t *Trainer) Checkpoint(path string, rep *Report, rng *ckpt.Rand) error {
	return t.writeCheckpoint(path, &runState{rep: rep, warmupDone: true}, rng)
}

// trainerWire is the gob layout of the "trainer" section.
type trainerWire struct {
	Version     int
	Strategy    string
	WarmupDone  bool
	WarmupCurve []float64
	Floor       float64
	Promotions  []promotionWire
	Rounds      []roundWire
	// Quarantines (v2+) records which promotions the guard removed from
	// the sampling mixture; replaying them after the Promote calls
	// rebuilds the distribution bit-exactly.
	Quarantines []quarantineWire
}

// quarantineWire is one Distribution.Quarantine call.
type quarantineWire struct {
	Index  int
	Reason string
}

// promotionWire is one Distribution.Promote call: the promoted
// configuration's values and the mixture weight it was promoted with.
// Replaying the calls in order rebuilds the distribution bit-exactly.
type promotionWire struct {
	Values []float64
	Weight float64
}

// roundWire is RoundReport with the config flattened to its values (Config
// holds an unexported space pointer, so it cannot gob directly).
type roundWire struct {
	Round        int
	Promoted     []float64
	Score        float64
	SearchEvals  int
	TrainRewards []float64
	Search       *bo.Trace
	Recoveries   []RecoveryEvent // v2+
}

func (t *Trainer) wireState(st *runState) trainerWire {
	rep := st.rep
	wire := trainerWire{
		Version:     trainerStateVersion,
		Strategy:    rep.Strategy,
		WarmupDone:  st.warmupDone,
		WarmupCurve: append([]float64(nil), rep.WarmupCurve...),
		Floor:       rep.Distribution.ExplorationFloor(),
	}
	proms := rep.Distribution.Promoted()
	weights := rep.Distribution.Weights()
	for i := range proms {
		wire.Promotions = append(wire.Promotions, promotionWire{
			Values: proms[i].Values(),
			Weight: weights[i],
		})
	}
	for _, q := range rep.Distribution.Quarantines() {
		wire.Quarantines = append(wire.Quarantines, quarantineWire{
			Index:  q.Index,
			Reason: q.Reason,
		})
	}
	for _, r := range rep.Rounds {
		wire.Rounds = append(wire.Rounds, roundWire{
			Round:        r.Round,
			Promoted:     r.Promoted.Values(),
			Score:        r.Score,
			SearchEvals:  r.SearchEvals,
			TrainRewards: append([]float64(nil), r.TrainRewards...),
			Search:       r.Search.Clone(),
			Recoveries:   append([]RecoveryEvent(nil), r.Recoveries...),
		})
	}
	return wire
}

func (t *Trainer) writeCheckpoint(path string, st *runState, rng *ckpt.Rand) error {
	sp := t.opts.Recorder.Start("ckpt/write")
	defer sp.End()
	ash, ok := t.h.(AgentStateHarness)
	if !ok {
		return fmt.Errorf("core: harness %T does not support agent state capture; cannot checkpoint", t.h)
	}
	var agent bytes.Buffer
	if err := ash.SaveAgentState(&agent); err != nil {
		return fmt.Errorf("core: checkpoint agent state: %w", err)
	}
	w := ckpt.NewWriter()
	if err := w.Add(secAgent, agent.Bytes()); err != nil {
		return err
	}
	if err := w.AddGob(secTrainer, t.wireState(st)); err != nil {
		return err
	}
	if err := w.AddGob(secRNG, rng.State()); err != nil {
		return err
	}
	// Bounded retry: a checkpoint write failure (injected at the
	// ckpt-write site, or a real transient filesystem error) is retried up
	// to ckptWriteAttempts times before aborting the run. Retries touch no
	// rng, so they cannot perturb training determinism. A write that
	// needed retries is recorded as a ckpt-retry recovery event on the
	// most recent round so chaos reports show it.
	var err error
	for attempt := 1; attempt <= ckptWriteAttempts; attempt++ {
		if t.opts.Faults.Fire(faults.CkptWriteFail) {
			err = fmt.Errorf("core: checkpoint write: injected %s fault", faults.CkptWriteFail)
		} else {
			err = w.WriteFile(path)
		}
		if err == nil {
			if attempt > 1 {
				if m := t.opts.Metrics; m.Enabled() {
					m.Counter("guard/ckpt_retries").Add(int64(attempt - 1))
				}
				if n := len(st.rep.Rounds); n > 0 {
					ev := RecoveryEvent{
						Kind:   "ckpt-retry",
						Round:  st.rep.Rounds[n-1].Round,
						Count:  attempt,
						Detail: fmt.Sprintf("checkpoint write succeeded on attempt %d", attempt),
					}
					st.rep.Rounds[n-1].Recoveries = append(st.rep.Rounds[n-1].Recoveries, ev)
					if t.opts.AfterRecovery != nil {
						t.opts.AfterRecovery(ev)
					}
				}
			}
			t.opts.Status.SetCheckpoint(path, len(st.rep.Rounds))
			return nil
		}
	}
	return fmt.Errorf("core: checkpoint write failed after %d attempts: %w", ckptWriteAttempts, err)
}

// ckptWriteAttempts bounds the checkpoint-write retry loop.
const ckptWriteAttempts = 3

func (t *Trainer) restore(path string) (*runState, *ckpt.Rand, error) {
	sp := t.opts.Recorder.Start("ckpt/read")
	defer sp.End()
	f, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var wire trainerWire
	if err := f.Gob(secTrainer, &wire); err != nil {
		return nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	if wire.Version < 1 || wire.Version > trainerStateVersion {
		return nil, nil, fmt.Errorf("core: resume: trainer state version %d unsupported (this build reads <= %d)",
			wire.Version, trainerStateVersion)
	}
	if wire.Strategy != t.opts.strategy() {
		return nil, nil, fmt.Errorf("core: resume: checkpoint was written by strategy %q, trainer is configured for %q",
			wire.Strategy, t.opts.strategy())
	}
	ash, ok := t.h.(AgentStateHarness)
	if !ok {
		return nil, nil, fmt.Errorf("core: harness %T does not support agent state capture; cannot resume", t.h)
	}
	agentBytes, err := f.Section(secAgent)
	if err != nil {
		return nil, nil, fmt.Errorf("core: resume: %w", err)
	}
	if err := ash.LoadAgentState(bytes.NewReader(agentBytes)); err != nil {
		return nil, nil, fmt.Errorf("core: resume agent state: %w", err)
	}
	var rst ckpt.RandState
	if err := f.Gob(secRNG, &rst); err != nil {
		return nil, nil, fmt.Errorf("core: resume: %w", err)
	}

	st := t.newRunState()
	st.warmupDone = wire.WarmupDone
	rep := st.rep
	rep.WarmupCurve = wire.WarmupCurve
	space := t.h.Space()
	for i, p := range wire.Promotions {
		cfg, err := space.NewConfig(p.Values)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resume promotion %d: %w", i, err)
		}
		if err := rep.Distribution.Promote(cfg, p.Weight); err != nil {
			return nil, nil, fmt.Errorf("core: resume promotion %d: %w", i, err)
		}
	}
	rep.Distribution.SetExplorationFloor(wire.Floor)
	for _, q := range wire.Quarantines {
		if err := rep.Distribution.Quarantine(q.Index, q.Reason); err != nil {
			return nil, nil, fmt.Errorf("core: resume quarantine: %w", err)
		}
	}
	for _, r := range wire.Rounds {
		cfg, err := space.NewConfig(r.Promoted)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resume round %d: %w", r.Round, err)
		}
		rep.Rounds = append(rep.Rounds, RoundReport{
			Round:        r.Round,
			Promoted:     cfg,
			Score:        r.Score,
			SearchEvals:  r.SearchEvals,
			TrainRewards: r.TrainRewards,
			Search:       r.Search,
			Recoveries:   r.Recoveries,
		})
	}
	return st, ckpt.RestoreRand(rst), nil
}
