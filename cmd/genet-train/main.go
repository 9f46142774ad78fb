// Command genet-train trains an RL policy for one of the three use cases
// (abr, cc, lb) with Genet's curriculum, traditional RL over a chosen range,
// or one of the alternative curricula, and saves the resulting model.
//
// Usage:
//
//	genet-train -usecase abr -strategy genet -rounds 9 -iters 10 -o abr.model
//	genet-train -usecase cc -strategy rl3 -rounds 9 -iters 10 -o cc.model
//
// rl1-rl3 train for the same budget as a curriculum run with the same flags:
// the resolved warm-up plus rounds x iters iterations (100 above).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/fleet"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
)

func main() {
	var (
		useCase    = flag.String("usecase", "abr", "use case: abr|cc|lb")
		strategy   = flag.String("strategy", "genet", "training strategy: genet|rl1|rl2|rl3|cl2|cl3")
		rounds     = flag.Int("rounds", 9, "curriculum rounds (genet/cl strategies)")
		iters      = flag.Int("iters", 10, "training iterations per round (rl1-3 train the equal budget: resolved warm-up + rounds x iters)")
		boSteps    = flag.Int("bo-steps", 15, "BO search budget per round")
		envsEval   = flag.Int("envs-per-eval", 10, "environments per gap estimate")
		seed       = flag.Int64("seed", 42, "random seed")
		outPath    = flag.String("o", "", "output model file (required)")
		baseName   = flag.String("baseline", "", "rule-based baseline override (abr: mpc|bba; cc: bbr|cubic; lb: llf)")
		metPath    = flag.String("metrics", "", "stream JSON-lines training telemetry to this file (closing line is a summary snapshot); not with -rundir, which streams it to DIR/events.jsonl")
		ckPath     = flag.String("checkpoint", "", "write a resumable training checkpoint to this file (atomic; curriculum strategies only)")
		ckEvery    = flag.Int("checkpoint-every", 1, "rounds between checkpoint writes")
		resume     = flag.String("resume", "", "resume a curriculum run from this checkpoint file (keeps checkpointing to it unless -checkpoint overrides)")
		useGuard   = flag.Bool("guard", false, "arm the training-health watchdog (skip poisoned updates, quarantine faulty envs, roll back to checkpoints)")
		rbAfter    = flag.Int("rollback-after", 8, "with -guard: consecutive unhealthy updates before rolling back to the last checkpoint")
		qAfter     = flag.Int("quarantine-after", 3, "with -guard: consecutive faulty rollouts before quarantining the newest promoted config")
		inject     = flag.String("inject", "", "chaos testing: deterministic fault spec \"site:everyN,...\" over sites env-step|grad-nan|trace-corrupt|bo-query|ckpt-write (or \"all:N\")")
		envsIter   = flag.Int("envs-per-iter", 0, "parallel environments per training iteration (0 = harness default)")
		stepsIt    = flag.Int("steps-per-iter", 0, "environment steps per training iteration (0 = harness default)")
		warmup     = flag.Int("warmup", -1, "warm-up iterations before the first promotion, also counted in rl1-3's budget (-1 = default 10, 0 = none)")
		runDir     = flag.String("rundir", "", "write the standard run artifacts (manifest.json, events.jsonl, spans.trace.json, checkpoint, model) into this directory")
		introspect = flag.String("introspect", "", "serve live introspection (/healthz, /metrics, /run, /trace, /debug/pprof) on this address, e.g. :8080")
	)
	flag.Parse()
	if *outPath == "" && *runDir == "" {
		fmt.Fprintln(os.Stderr, "genet-train: -o is required (or use -rundir)")
		os.Exit(2)
	}
	if *runDir != "" && *metPath != "" {
		fmt.Fprintf(os.Stderr, "genet-train: -metrics cannot be combined with -rundir: the run's telemetry goes to %s\n", filepath.Join(*runDir, obs.EventsFile))
		os.Exit(2)
	}
	uc, err := core.LookupUseCase(*useCase)
	if err != nil {
		fatal(err)
	}
	if _, _, err := uc.Strategy(*strategy); err != nil {
		fatal(err)
	}
	if *outPath == "" {
		*outPath = filepath.Join(*runDir, obs.ModelFile)
	}

	// -rundir turns on the full observability stack: the flight recorder,
	// the telemetry stream, and the standard artifact layout; -metrics alone
	// streams telemetry without the rest. Without either, run's registry and
	// recorder are nil and telemetry costs the hot path nothing.
	run, err := obs.OpenRun(obs.RunConfig{
		Dir:    *runDir,
		Events: *metPath,
		Manifest: obs.Manifest{
			Tool:              "genet-train",
			UseCase:           uc.Name,
			Strategy:          strings.ToLower(*strategy),
			Seed:              *seed,
			Rounds:            *rounds,
			Flags:             obs.CommandLineFlags(),
			Kernel:            nn.KernelName(),
			CheckpointVersion: core.TrainerStateVersion,
		},
		Start: []metrics.F{{K: "rounds", V: float64(*rounds)}, {K: "iters", V: float64(*iters)}},
	})
	if err != nil {
		fatal(err)
	}
	// flushArtifacts makes the on-disk artifacts valid *now*. It runs at
	// guard recoveries and on the hard-abort ^C path, so even a truncated
	// run leaves parseable files.
	flushArtifacts := func() {
		if err := run.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "genet-train:", err)
		}
	}

	// The live status view backs the introspection server's /run endpoint;
	// it stays nil (free) without -introspect.
	rec := run.Recorder
	var status *obs.RunStatus
	if *introspect != "" {
		status = obs.NewRunStatus()
		if rec == nil {
			// The /trace endpoint is part of the introspection surface
			// even without a run directory on disk.
			rec = obs.NewRecorder(0)
		}
		srv, err := obs.StartServer(*introspect, obs.ServerOptions{
			Metrics: run.Metrics, Recorder: rec, Status: status,
			OnError: func(err error) {
				fmt.Fprintln(os.Stderr, "genet-train: introspection server died:", err)
			},
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "genet-train: introspection server on http://%s\n", srv.Addr)
	}
	status.SetRun("genet-train", uc.Name, *strategy, *seed, *rounds)

	// -warmup counts -1 as the default and 0 as none; Budget counts 0 as
	// the default and negative as none.
	warm := *warmup
	switch {
	case warm < 0:
		warm = 0
	case warm == 0:
		warm = -1
	}
	spec := fleet.TrainSpec{
		Env: uc.Name, Mode: *strategy, Seed: *seed,
		Budget: fleet.Budget{
			Rounds: *rounds, ItersPerRound: *iters,
			BOSteps: *boSteps, EnvsPerEval: *envsEval,
			EnvsPerIter: *envsIter, StepsPerIter: *stepsIt,
			Warmup: warm,
		},
		Baseline:        *baseName,
		Model:           *outPath,
		Dir:             *runDir,
		Checkpoint:      *ckPath,
		ResumeFrom:      *resume,
		CheckpointEvery: *ckEvery,
		Metrics:         run.Metrics,
		Recorder:        rec,
		Status:          status,
		AfterRecovery:   func(core.RecoveryEvent) { flushArtifacts() },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *useGuard {
		spec.Guard = guard.New(guard.Config{
			RollbackAfter:   *rbAfter,
			QuarantineAfter: *qAfter,
		})
	}
	if *inject != "" {
		spec.Faults, err = faults.ParseSpec(*seed, *inject)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chaos: injecting faults (%s)\n", *inject)
	}
	ckFile := spec.CheckpointPath()
	if ckFile != "" {
		spec.Stop = interruptFlag(ckFile, flushArtifacts)
	}

	start := time.Now()
	tr, err := spec.Train()
	if err != nil {
		run.Finish(obs.OutcomeFailed)
		fatal(err)
	}
	outcome := obs.OutcomeCompleted
	if rep := tr.Report; rep != nil {
		for _, r := range rep.Rounds {
			fmt.Fprintf(os.Stderr, "round %d: promoted [%s] score=%.3f\n", r.Round, r.Promoted, r.Score)
			for _, ev := range r.Recoveries {
				fmt.Fprintf(os.Stderr, "round %d: recovery %s count=%d %s\n", r.Round, ev.Kind, ev.Count, ev.Detail)
			}
		}
		if n := rep.Distribution.NumQuarantined(); n > 0 {
			fmt.Fprintf(os.Stderr, "quarantined %d promoted config(s): %s\n", n, rep.Distribution)
		}
		if rep.Interrupted {
			outcome = obs.OutcomeInterrupted
			fmt.Fprintf(os.Stderr, "interrupted after %d/%d rounds; continue with -resume %s\n",
				len(rep.Rounds), *rounds, ckFile)
		}
	} else {
		fmt.Fprintf(os.Stderr, "final training reward: %.3f\n", tr.Curve[len(tr.Curve)-1])
	}
	fmt.Fprintf(os.Stderr, "trained in %v\n", time.Since(start).Round(time.Millisecond))
	if spec.Guard.Enabled() {
		fmt.Fprintf(os.Stderr, "guard: %s\n", spec.Guard.Snapshot())
	}
	if spec.Faults != nil {
		fmt.Fprintf(os.Stderr, "faults: %s\n", spec.Faults)
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *outPath)
	if err := run.Finish(outcome); err != nil {
		fmt.Fprintln(os.Stderr, "genet-train:", err)
	}
}

// interruptFlag installs a SIGINT handler and returns the stop predicate the
// trainer polls at safe points. The first ^C requests a graceful stop — the
// trainer finishes the round in flight, writes the checkpoint atomically,
// and exits — so a mid-run interrupt always leaves path loadable, never a
// torn file. It also flushes the run artifacts immediately, so even if the
// process dies before the safe point, events.jsonl and spans.trace.json on
// disk are valid. A second ^C aborts immediately (the previous complete
// checkpoint survives, thanks to write-to-temp-then-rename): the artifacts
// are flushed one last time, then any temp file the aborted write stranded
// is swept; the startup sweep catches the case where the abort wins the
// race with an in-flight creation.
func interruptFlag(path string, flushArtifacts func()) func() bool {
	var requested atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "\ngenet-train: interrupt: stopping at next safe point and checkpointing to %s (^C again to abort)\n", path)
		requested.Store(true)
		flushArtifacts()
		<-sigc
		flushArtifacts()
		ckpt.RemoveStaleTemps(path) // best effort; startup sweep is the backstop
		os.Exit(130)
	}()
	return requested.Load
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genet-train:", err)
	os.Exit(1)
}
