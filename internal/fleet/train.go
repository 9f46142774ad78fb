package fleet

import (
	"fmt"
	"io"
	"path/filepath"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// TrainSpec declares one training run: use case, strategy, seed, budget,
// checkpoint settings and runtime hooks. Its Train method is the one place
// a run becomes a model: genet-train runs one spec and every fleet cell is
// one, so both write the same model.bin from the same flags.
type TrainSpec struct {
	// Env is the use case and Mode the strategy (genet|rl1|rl2|rl3|cl2|cl3).
	Env, Mode string
	Seed      int64
	Budget    Budget
	// Baseline overrides the use case's default rule-based baseline.
	Baseline string
	// Model is the path the trained model is written to; empty writes none.
	Model string
	// Dir is the run directory, if any: a curriculum run checkpoints into
	// its standard slot unless Checkpoint or ResumeFrom is set.
	Dir string
	// Checkpoint is the file curriculum runs checkpoint to, every
	// CheckpointEvery rounds (default 1). ResumeFrom is a checkpoint to
	// resume from, and to keep checkpointing to unless Checkpoint is set.
	// Traditional modes have no safe points and reject both.
	Checkpoint, ResumeFrom string
	CheckpointEvery        int
	// Stop is polled at curriculum safe points of a checkpointed run; once
	// it returns true the run checkpoints and returns interrupted.
	Stop func() bool
	// Runtime hooks, all optional, attached as core.Options documents.
	Metrics       *metrics.Registry
	Recorder      *obs.Recorder
	Status        *obs.RunStatus
	Guard         *guard.Guard
	Faults        *faults.Injector
	AfterRecovery func(core.RecoveryEvent)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Edit, when non-nil, adjusts the fresh harness (baseline, ensemble,
	// trace set) and the options (objective, budget, AfterRound) before
	// training starts and before a traditional mode's iteration budget is
	// resolved from them.
	Edit func(core.Harness, *core.Options)
}

// CheckpointPath is the file the run checkpoints to: Checkpoint, else
// ResumeFrom, else the run directory's slot for a curriculum mode. Empty
// means the run writes no checkpoint.
func (s *TrainSpec) CheckpointPath() string {
	switch {
	case s.Checkpoint != "":
		return s.Checkpoint
	case s.ResumeFrom != "":
		return s.ResumeFrom
	case s.Dir != "" && curriculumMode(s.Mode):
		return filepath.Join(s.Dir, obs.CheckpointFile)
	}
	return ""
}

// Trained is the outcome of Train.
type Trained struct {
	UseCase *core.UseCase
	Harness core.Harness
	// Report is the curriculum report (nil for traditional modes).
	Report *core.Report
	// Curve is the training-reward curve (warm-up, then every round).
	Curve []float64
}

// Train builds the spec's harness, trains it and writes the model (if
// Model is set) atomically, even when a curriculum run is interrupted. Curriculum modes
// run Algorithm 2, checkpointed when CheckpointPath is set and resumed from
// ResumeFrom; rl1-rl3 run Algorithm 1 for the equal budget
// core.Options.TraditionalIters.
func (s *TrainSpec) Train() (*Trained, error) {
	uc, err := core.LookupUseCase(s.Env)
	if err != nil {
		return nil, err
	}
	level, objective, err := uc.Strategy(s.Mode)
	if err != nil {
		return nil, err
	}
	curriculum := curriculumMode(s.Mode)
	ckPath := s.CheckpointPath()
	if !curriculum && ckPath != "" {
		return nil, fmt.Errorf("checkpointing requires a curriculum strategy (genet|cl2|cl3); %s has no safe points", s.Mode)
	}
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Sweep temp files stranded by an earlier aborted checkpoint write
	// before writing anything next to the checkpoint.
	for _, p := range []string{ckPath, s.ResumeFrom} {
		if p == "" {
			continue
		}
		if n, err := ckpt.RemoveStaleTemps(p); err == nil && n > 0 {
			logf("removed %d stale checkpoint temp file(s) near %s", n, p)
		}
	}

	// The run's single random stream is position-serializable so
	// checkpoints capture it exactly; crng.Rand is a plain *rand.Rand.
	crng := ckpt.NewRand(s.Seed)
	b := s.Budget
	h, err := uc.NewHarness(level, s.Baseline, b.EnvsPerIter, b.StepsPerIter, crng.Rand)
	if err != nil {
		return nil, err
	}
	opts := b.Options()
	opts.Objective, opts.AfterRecovery = objective, s.AfterRecovery
	opts.Metrics, opts.Guard, opts.Faults, opts.Recorder, opts.Status = s.Metrics, s.Guard, s.Faults, s.Recorder, s.Status
	if s.Edit != nil {
		s.Edit(h, &opts)
	}
	out := &Trained{UseCase: uc, Harness: h}
	if !curriculum {
		// No round structure means no rollback/quarantine policy, but the
		// per-update scan and rollout containment still apply.
		core.AttachHooks(h, s.Metrics, s.Guard, s.Faults, s.Recorder)
		iters := opts.TraditionalIters()
		logf("training traditional %s on %s for %d iterations...", s.Mode, uc.Name, iters)
		out.Curve = core.TrainTraditional(h, iters, crng.Rand)
	} else {
		logf("training %s on %s: %d rounds x %d iterations...", s.Mode, uc.Name, b.Rounds, b.ItersPerRound)
		co := core.CheckpointOptions{Path: ckPath, Every: s.CheckpointEvery, Stop: s.Stop}
		switch {
		case ckPath == "":
			out.Report, err = core.NewTrainer(h, opts).Run(crng.Rand)
		case s.ResumeFrom != "":
			logf("resuming from %s...", s.ResumeFrom)
			out.Report, err = core.ResumeTrainer(h, opts, s.ResumeFrom, co)
		default:
			out.Report, err = core.NewTrainer(h, opts).RunCheckpointed(crng, co)
		}
		if err != nil {
			return nil, err
		}
		out.Curve = out.Report.TrainingCurve()
	}

	if s.Model == "" {
		return out, nil
	}
	// Atomic (temp+fsync+rename) like the checkpoint writes: a policy
	// server watching this path must never observe a torn model.
	if err := ckpt.AtomicWriteFile(s.Model, func(w io.Writer) error {
		return core.SaveModel(h, w)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
