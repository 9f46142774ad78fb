package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
)

// ResultFile is the per-cell result artifact, written next to the standard
// run-directory files once a cell completes. Its presence (plus a completed
// manifest and a CheckComplete-valid artifact set) is what marks a cell done
// during a resume scan.
const ResultFile = "result.json"

// CellsDir is the subdirectory of a sweep's output directory holding one
// run directory per cell.
const CellsDir = "cells"

// CellResult is the outcome of one completed cell. Every field is a
// deterministic function of the cell identity (training and evaluation are
// seeded, and resume is bit-exact), except Resumed, which records how this
// particular result was produced and is excluded from aggregate summaries.
type CellResult struct {
	ID    string `json:"id"`
	Env   string `json:"env"`
	Mode  string `json:"mode"`
	Seed  int64  `json:"seed"`
	Fault string `json:"fault,omitempty"`

	// Rounds is the number of completed curriculum rounds (0 for
	// traditional modes).
	Rounds int `json:"rounds"`
	// FinalTrainReward is the last training-iteration mean reward.
	FinalTrainReward float64 `json:"final_train_reward"`
	// EvalReward and EvalBaseline are mean rewards of the final model and
	// the rule-based baseline over the cell's paired evaluation
	// environments; Gap is their difference (baseline - RL, the quantity
	// Genet minimizes at test time).
	EvalReward   float64 `json:"eval_reward"`
	EvalBaseline float64 `json:"eval_baseline"`
	Gap          float64 `json:"gap"`
	// Quarantined and Recoveries summarize guard interventions (fault
	// profiles only; both 0 on clean cells).
	Quarantined int `json:"quarantined,omitempty"`
	Recoveries  int `json:"recoveries,omitempty"`
	// Resumed is true when this result was produced by resuming a
	// partially-completed cell rather than by an uninterrupted run. It is
	// provenance, not outcome — the numbers above are bit-identical either
	// way — so summaries and verdicts ignore it.
	Resumed bool `json:"resumed,omitempty"`
}

// Options configure one Run invocation (the sweep declaration itself lives
// in Config).
type Options struct {
	// OutDir is the sweep's output directory; cell run directories are
	// created under OutDir/cells/<cell-id>.
	OutDir string
	// Workers caps concurrent cells (default GOMAXPROCS).
	Workers int
	// Stop is polled before each cell starts and at curriculum safe points
	// of in-flight cells: once it returns true, no new cell starts and
	// running curriculum cells checkpoint and exit, leaving a resumable
	// sweep. Signal handlers set this for graceful ^C.
	Stop func() bool
	// StopAfterCells, when positive, stops the sweep after that many cells
	// have been executed (not merely loaded) by this invocation — the hook
	// behind resume tests and the CI kill/resume smoke job.
	StopAfterCells int
	// Verbose, when non-nil, receives per-cell progress lines.
	Verbose io.Writer
}

// SweepResult is the outcome of one Run invocation.
type SweepResult struct {
	// Cells holds the results of all completed cells in expansion order
	// (both freshly executed and loaded from previous invocations).
	Cells []CellResult
	// Executed counts cells trained by this invocation, Skipped cells
	// loaded from a previous invocation's results, Remaining cells still
	// incomplete (non-zero only after an interrupted sweep).
	Executed, Skipped, Remaining int
	// Summary is the bootstrap-CI aggregate; nil while Remaining > 0 — a
	// partial sweep must never masquerade as a finished table.
	Summary *Summary
}

// Interrupted reports whether the sweep stopped before completing all cells.
func (r *SweepResult) Interrupted() bool { return r.Remaining > 0 }

// Run executes (or resumes) the declared sweep. Cells run concurrently via
// par.ForN; each cell is fully self-contained — its own harness, rng
// streams, metrics registry, and run directory — so results are independent
// of scheduling and worker count, and the final aggregate is byte-identical
// whether the sweep ran straight through or was killed and resumed any
// number of times.
func Run(cfg *Config, opts Options) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.OutDir == "" {
		return nil, fmt.Errorf("fleet: Options.OutDir is required")
	}
	cells := cfg.Cells()
	if err := os.MkdirAll(filepath.Join(opts.OutDir, CellsDir), 0o755); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var (
		executed atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex // guards verbose writer interleaving
	)
	logf := func(format string, args ...any) {
		if opts.Verbose != nil {
			mu.Lock()
			fmt.Fprintf(opts.Verbose, format, args...)
			mu.Unlock()
		}
	}
	stopNow := func() bool {
		if stopped.Load() {
			return true
		}
		if opts.Stop != nil && opts.Stop() {
			stopped.Store(true)
			return true
		}
		return false
	}

	type outcome struct {
		res   CellResult
		state string // "executed", "skipped", "remaining"
		err   error
	}
	outcomes := make([]outcome, len(cells))
	par.ForN(len(cells), workers, func(i int) {
		c := cells[i]
		if stopNow() {
			outcomes[i] = outcome{state: "remaining"}
			return
		}
		dir := filepath.Join(opts.OutDir, CellsDir, c.ID)
		if res, ok := loadCompletedCell(dir, c); ok {
			outcomes[i] = outcome{res: res, state: "skipped"}
			logf("fleet: cell %s complete, skipping\n", c.ID)
			return
		}
		start := time.Now()
		// stopNow is also polled at curriculum safe points inside running
		// cells, so a sweep-level stop checkpoints in-flight curriculum
		// cells instead of letting them run to completion.
		res, interrupted, err := runCell(c, dir, cfg, stopNow)
		switch {
		case err != nil:
			outcomes[i] = outcome{err: fmt.Errorf("fleet: cell %s: %w", c.ID, err)}
		case interrupted:
			outcomes[i] = outcome{state: "remaining"}
			logf("fleet: cell %s interrupted at a safe point (resumable)\n", c.ID)
		default:
			outcomes[i] = outcome{res: res, state: "executed"}
			n := executed.Add(1)
			if opts.StopAfterCells > 0 && n >= int64(opts.StopAfterCells) {
				stopped.Store(true)
			}
			logf("fleet: cell %s done in %v (reward=%.4f gap=%.4f)\n",
				c.ID, time.Since(start).Round(time.Millisecond), res.EvalReward, res.Gap)
		}
	})

	out := &SweepResult{}
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		switch o.state {
		case "executed":
			out.Executed++
			out.Cells = append(out.Cells, o.res)
		case "skipped":
			out.Skipped++
			out.Cells = append(out.Cells, o.res)
		default:
			out.Remaining++
		}
	}
	if out.Remaining == 0 {
		out.Summary = Aggregate(cfg, cells, out.Cells)
	}
	return out, nil
}

// loadCompletedCell reports whether dir holds a finished cell: a manifest
// with a completed outcome, a CheckComplete-valid artifact set, and a
// parseable result file whose identity matches. Anything less (torn files,
// an interrupted or still-"running" manifest from a killed process) makes
// the cell a candidate for resume or restart.
func loadCompletedCell(dir string, c Cell) (CellResult, bool) {
	man, err := obs.ReadManifest(dir)
	if err != nil || man.Outcome != obs.OutcomeCompleted {
		return CellResult{}, false
	}
	if err := obs.CheckComplete(dir); err != nil {
		return CellResult{}, false
	}
	data, err := os.ReadFile(filepath.Join(dir, ResultFile))
	if err != nil {
		return CellResult{}, false
	}
	var res CellResult
	if err := json.Unmarshal(data, &res); err != nil || res.ID != c.ID {
		return CellResult{}, false
	}
	return res, true
}

// runCell executes one cell in dir, resuming from its checkpoint when one
// exists (curriculum modes only). It returns interrupted=true when the cell
// stopped at a safe point with a resumable checkpoint instead of finishing.
func runCell(c Cell, dir string, cfg *Config, stop func() bool) (res CellResult, interrupted bool, err error) {
	resume := resumableCheckpoint(c, dir)
	if !resume {
		// Any stale partial state (a killed traditional cell, a torn
		// directory) restarts from scratch.
		if err := os.RemoveAll(dir); err != nil {
			return res, false, err
		}
	}
	man := obs.Manifest{
		Tool:     "genet-fleet",
		Cell:     c.ID,
		UseCase:  c.Env,
		Strategy: c.Mode,
		Seed:     c.Seed,
		Rounds:   cfg.Budget.Rounds,
		Flags:    cellFlags(c, cfg),
		Kernel:   nn.KernelName(),
	}
	if curriculumMode(c.Mode) {
		man.CheckpointVersion = core.TrainerStateVersion
	}
	run, err := obs.OpenRun(obs.RunConfig{Dir: dir, Reopen: resume, Manifest: man})
	if err != nil {
		return res, false, err
	}
	outcome := obs.OutcomeFailed
	defer func() { run.Finish(outcome) }()

	spec := TrainSpec{
		Env: c.Env, Mode: c.Mode, Seed: c.Seed, Budget: cfg.Budget,
		Model: filepath.Join(dir, obs.ModelFile), Dir: dir, Stop: stop,
		Metrics: run.Metrics, Recorder: run.Recorder,
	}
	if resume {
		spec.ResumeFrom = filepath.Join(dir, obs.CheckpointFile)
	}
	if c.Fault != "" {
		if spec.Faults, err = faults.ParseSpec(c.Seed, c.Fault); err != nil {
			return res, false, err
		}
		// A faulted cell arms the watchdog with the genet-train defaults so
		// injected faults are survived, not fatal.
		spec.Guard = guard.New(guard.Config{RollbackAfter: 8, QuarantineAfter: 3})
	}
	tr, err := spec.Train()
	if err != nil {
		return res, false, err
	}
	if tr.Report != nil && tr.Report.Interrupted {
		outcome = obs.OutcomeInterrupted
		return res, true, nil
	}

	res = CellResult{ID: c.ID, Env: c.Env, Mode: c.Mode, Seed: c.Seed, Fault: c.Fault, Resumed: resume}
	if rep := tr.Report; rep != nil {
		res.Rounds = len(rep.Rounds)
		res.Quarantined = rep.Distribution.NumQuarantined()
		for _, r := range rep.Rounds {
			res.Recoveries += len(r.Recoveries)
		}
	}
	if n := len(tr.Curve); n > 0 {
		res.FinalTrainReward = tr.Curve[n-1]
	}
	evalCell(tr, c, cfg.EvalEnvs, &res)
	if err := writeResult(dir, res); err != nil {
		return res, false, err
	}
	outcome = obs.OutcomeCompleted
	return res, false, nil
}

// resumableCheckpoint reports whether dir holds a mid-training checkpoint a
// curriculum cell can resume from: a manifest (so the directory is ours) and
// a checkpoint file. Traditional modes never resume mid-cell.
func resumableCheckpoint(c Cell, dir string) bool {
	_, manErr := obs.ReadManifest(dir)
	_, ckErr := os.Stat(filepath.Join(dir, obs.CheckpointFile))
	return curriculumMode(c.Mode) && manErr == nil && ckErr == nil
}

// evalCell tests the cell's final model against the rule-based baseline on
// EvalEnvs paired environments drawn uniformly from the full (RL3) space,
// whatever range the cell trained on, so every mode of a seed is tested on
// the same configurations. The evaluation stream is derived from the cell
// seed alone (not from where training's stream ended), so the numbers are a
// pure function of cell identity.
func evalCell(tr *Trained, c Cell, evalEnvs int, res *CellResult) {
	evalRng := rand.New(rand.NewSource(c.Seed ^ evalSeedSalt))
	dist := env.NewDistribution(tr.UseCase.Space(env.RL3))
	var rlSum, baseSum float64
	for i := 0; i < evalEnvs; i++ {
		cfg := dist.Sample(evalRng)
		instSeed := evalRng.Int63()
		ev := tr.Harness.Eval(cfg, 1, core.NeedBaseline, rand.New(rand.NewSource(instSeed)))
		rlSum += ev.RL
		baseSum += ev.Baseline
	}
	n := float64(evalEnvs)
	res.EvalReward = rlSum / n
	res.EvalBaseline = baseSum / n
	res.Gap = res.EvalBaseline - res.EvalReward
}

// evalSeedSalt separates the evaluation stream from the training stream for
// cells sharing a seed.
const evalSeedSalt = 0x5DEECE66D

func writeResult(dir string, res CellResult) error {
	return writeJSON(filepath.Join(dir, ResultFile), res)
}

// cellFlags records the budget and fault profile in the cell manifest, the
// same way genet-train records its command line.
func cellFlags(c Cell, cfg *Config) map[string]string {
	m := map[string]string{
		"rounds":        fmt.Sprint(cfg.Budget.Rounds),
		"iters":         fmt.Sprint(cfg.Budget.ItersPerRound),
		"bo-steps":      fmt.Sprint(cfg.Budget.BOSteps),
		"envs-per-eval": fmt.Sprint(cfg.Budget.EnvsPerEval),
		"eval-envs":     fmt.Sprint(cfg.EvalEnvs),
	}
	if cfg.Budget.EnvsPerIter > 0 {
		m["envs-per-iter"] = fmt.Sprint(cfg.Budget.EnvsPerIter)
	}
	if cfg.Budget.StepsPerIter > 0 {
		m["steps-per-iter"] = fmt.Sprint(cfg.Budget.StepsPerIter)
	}
	if cfg.Budget.Warmup != 0 {
		m["warmup"] = fmt.Sprint(cfg.Budget.Warmup)
	}
	if c.Fault != "" {
		m["inject"] = c.Fault
	}
	return m
}
