// Command genet-train trains an RL policy for one of the three use cases
// (abr, cc, lb) with Genet's curriculum, traditional RL over a chosen range,
// or one of the alternative curricula, and saves the resulting model.
//
// Usage:
//
//	genet-train -usecase abr -strategy genet -rounds 9 -iters 10 -o abr.model
//	genet-train -usecase cc -strategy rl3 -iters 100 -o cc.model
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/faults"
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
		iters      = flag.Int("iters", 10, "training iterations per round (or total/round-equivalent for rl1-3)")
		boSteps    = flag.Int("bo-steps", 15, "BO search budget per round")
		envsEval   = flag.Int("envs-per-eval", 10, "environments per gap estimate")
		seed       = flag.Int64("seed", 42, "random seed")
		outPath    = flag.String("o", "", "output model file (required)")
		baseName   = flag.String("baseline", "", "rule-based baseline override (abr: mpc|bba; cc: bbr|cubic; lb: llf)")
		metPath    = flag.String("metrics", "", "stream JSON-lines training telemetry to this file (closing line is a summary snapshot)")
		ckPath     = flag.String("checkpoint", "", "write a resumable training checkpoint to this file (atomic; curriculum strategies only)")
		ckEvery    = flag.Int("checkpoint-every", 1, "rounds between checkpoint writes")
		resume     = flag.String("resume", "", "resume a curriculum run from this checkpoint file (keeps checkpointing to it unless -checkpoint overrides)")
		useGuard   = flag.Bool("guard", false, "arm the training-health watchdog (skip poisoned updates, quarantine faulty envs, roll back to checkpoints)")
		rbAfter    = flag.Int("rollback-after", 8, "with -guard: consecutive unhealthy updates before rolling back to the last checkpoint")
		qAfter     = flag.Int("quarantine-after", 3, "with -guard: consecutive faulty rollouts before quarantining the newest promoted config")
		inject     = flag.String("inject", "", "chaos testing: deterministic fault spec \"site:everyN,...\" over sites env-step|grad-nan|trace-corrupt|bo-query|ckpt-write (or \"all:N\")")
		envsIter   = flag.Int("envs-per-iter", 0, "parallel environments per training iteration (0 = harness default)")
		stepsIt    = flag.Int("steps-per-iter", 0, "environment steps per training iteration (0 = harness default)")
		warmup     = flag.Int("warmup", -1, "warm-up iterations before the first promotion (-1 = default 10, 0 = none)")
		runDir     = flag.String("rundir", "", "write the standard run artifacts (manifest.json, events.jsonl, spans.trace.json, checkpoint, model) into this directory")
		introspect = flag.String("introspect", "", "serve live introspection (/healthz, /metrics, /run, /trace, /debug/pprof) on this address, e.g. :8080")
	)
	flag.Parse()
	if *outPath == "" && *runDir == "" {
		fmt.Fprintln(os.Stderr, "genet-train: -o is required (or use -rundir)")
		os.Exit(2)
	}
	uc, err := core.LookupUseCase(*useCase)
	if err != nil {
		fatal(err)
	}
	level, objective, err := uc.Strategy(*strategy)
	if err != nil {
		fatal(err)
	}

	// -rundir turns on the full observability stack: the flight recorder,
	// the telemetry stream, and the standard artifact layout. Each piece can
	// still be pointed elsewhere by its own flag.
	var (
		rec       *obs.Recorder
		spansPath string
	)
	if *runDir != "" {
		if err := obs.CreateRunDir(*runDir); err != nil {
			fatal(err)
		}
		rec = obs.NewRecorder(0)
		spansPath = filepath.Join(*runDir, obs.SpansFile)
		if *metPath == "" {
			*metPath = filepath.Join(*runDir, obs.EventsFile)
		}
		if *outPath == "" {
			*outPath = filepath.Join(*runDir, obs.ModelFile)
		}
	}

	// reg stays nil (telemetry off, zero hot-path cost) without -metrics.
	var reg *metrics.Registry
	if *metPath != "" {
		sink, err := metrics.FileSink(*metPath)
		if err != nil {
			fatal(err)
		}
		reg = metrics.NewRegistry()
		reg.SetSink(sink)
		reg.EmitTagged("run/start",
			map[string]string{"tool": "genet-train", "usecase": uc.Name, "strategy": *strategy},
			metrics.F{K: "seed", V: float64(*seed)},
			metrics.F{K: "rounds", V: float64(*rounds)},
			metrics.F{K: "iters", V: float64(*iters)})
		defer func() {
			reg.EmitSnapshot()
			if err := reg.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "genet-train: metrics:", err)
			}
		}()
	}

	// The run's single random stream is position-serializable so checkpoints
	// capture it exactly; crng.Rand is a plain *rand.Rand for call sites.
	crng := ckpt.NewRand(*seed)
	rng := crng.Rand
	h, err := uc.NewHarness(level, *baseName, *envsIter, *stepsIt, rng)
	if err != nil {
		fatal(err)
	}
	core.SetHarnessMetrics(h, reg)

	// The live status view backs the introspection server's /run endpoint;
	// it stays nil (free) without -introspect.
	var status *obs.RunStatus
	if *introspect != "" {
		status = obs.NewRunStatus()
		if rec == nil {
			// The /trace endpoint is part of the introspection surface
			// even without a run directory on disk.
			rec = obs.NewRecorder(0)
		}
		srv, err := obs.StartServer(*introspect, obs.ServerOptions{
			Metrics: reg, Recorder: rec, Status: status,
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

	// flushArtifacts makes the on-disk artifacts valid *now*: buffered
	// telemetry is pushed through to events.jsonl and the span ring is
	// rewritten (atomically) to spans.trace.json. It runs at guard
	// recoveries and on the hard-abort ^C path, so even a truncated run
	// leaves parseable files.
	flushArtifacts := func() {
		if err := reg.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "genet-train: metrics flush:", err)
		}
		if spansPath != "" {
			if err := rec.WriteTraceFile(spansPath); err != nil {
				fmt.Fprintln(os.Stderr, "genet-train: span trace:", err)
			}
		}
	}

	manifest := obs.Manifest{
		Tool:              "genet-train",
		UseCase:           uc.Name,
		Strategy:          strings.ToLower(*strategy),
		Seed:              *seed,
		Rounds:            *rounds,
		Flags:             visitedFlags(),
		Kernel:            nn.KernelName(),
		GoVersion:         runtime.Version(),
		CheckpointVersion: core.TrainerStateVersion,
		StartedAt:         time.Now().UTC().Format(time.RFC3339),
		Outcome:           obs.OutcomeRunning,
	}
	if *runDir != "" {
		if err := obs.WriteManifest(*runDir, manifest); err != nil {
			fatal(err)
		}
	}

	// Guard and fault injector are built up front so both the curriculum
	// and traditional paths share them, and the final summary can print
	// their counters.
	var g *guard.Guard
	if *useGuard {
		g = guard.New(guard.Config{
			RollbackAfter:   *rbAfter,
			QuarantineAfter: *qAfter,
		})
	}
	var injector *faults.Injector
	if *inject != "" {
		injector, err = faults.ParseSpec(*seed, *inject)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chaos: injecting faults (%s)\n", *inject)
	}

	// Sweep temp files stranded by a previous aborted run before writing
	// anything next to the checkpoint.
	for _, p := range []string{*ckPath, *resume} {
		if p == "" {
			continue
		}
		if n, err := ckpt.RemoveStaleTemps(p); err == nil && n > 0 {
			fmt.Fprintf(os.Stderr, "genet-train: removed %d stale checkpoint temp file(s) near %s\n", n, p)
		}
	}

	start := time.Now()
	outcome := obs.OutcomeCompleted
	switch strings.ToLower(*strategy) {
	case "rl1", "rl2", "rl3":
		if *ckPath != "" || *resume != "" {
			fatal(fmt.Errorf("-checkpoint/-resume require a curriculum strategy (genet|cl2|cl3); %s has no safe points", *strategy))
		}
		total := *rounds * *iters
		// No round structure means no rollback/quarantine policy, but the
		// per-update scan and rollout containment still apply.
		core.SetHarnessGuard(h, g)
		core.SetHarnessFaults(h, injector)
		core.SetHarnessRecorder(h, rec)
		if g.Enabled() && reg.Enabled() {
			g.SetMetrics(reg)
		}
		fmt.Fprintf(os.Stderr, "training traditional %s on %s for %d iterations...\n", *strategy, uc.Name, total)
		curve := core.TrainTraditional(h, total, rng)
		fmt.Fprintf(os.Stderr, "final training reward: %.3f\n", curve[len(curve)-1])
	default: // genet, cl2, cl3
		if *runDir != "" && *ckPath == "" && *resume == "" {
			// A run directory implies crash-safe training: checkpoint into
			// the standard slot unless the caller pointed elsewhere.
			*ckPath = filepath.Join(*runDir, obs.CheckpointFile)
		}
		opts := core.Options{
			Rounds: *rounds, ItersPerRound: *iters,
			BOSteps: *boSteps, EnvsPerEval: *envsEval,
			Objective: objective,
			Metrics:   reg,
			Guard:     g,
			Faults:    injector,
			Recorder:  rec,
			Status:    status,
			AfterRecovery: func(core.RecoveryEvent) {
				flushArtifacts()
			},
		}
		if *warmup >= 0 {
			if *warmup == 0 {
				opts.WarmupIters = -1 // resolved to "no warm-up"
			} else {
				opts.WarmupIters = *warmup
			}
		}
		fmt.Fprintf(os.Stderr, "training %s on %s: %d rounds x %d iterations...\n", *strategy, uc.Name, *rounds, *iters)
		var rep *core.Report
		if *ckPath == "" && *resume == "" {
			rep, err = core.NewTrainer(h, opts).Run(rng)
		} else {
			path := *ckPath
			if path == "" {
				path = *resume
			}
			co := core.CheckpointOptions{Path: path, Every: *ckEvery, Stop: interruptFlag(path, flushArtifacts)}
			if *resume != "" {
				fmt.Fprintf(os.Stderr, "resuming from %s...\n", *resume)
				rep, err = core.ResumeTrainer(h, opts, *resume, co)
			} else {
				rep, err = core.NewTrainer(h, opts).RunCheckpointed(crng, co)
			}
		}
		if err != nil {
			fatal(err)
		}
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
			ckFile := *ckPath
			if ckFile == "" {
				ckFile = *resume
			}
			fmt.Fprintf(os.Stderr, "interrupted after %d/%d rounds; continue with -resume %s\n",
				len(rep.Rounds), *rounds, ckFile)
		}
	}
	fmt.Fprintf(os.Stderr, "trained in %v\n", time.Since(start).Round(time.Millisecond))
	if g.Enabled() {
		fmt.Fprintf(os.Stderr, "guard: %s\n", g.Snapshot())
	}
	if injector != nil {
		fmt.Fprintf(os.Stderr, "faults: %s\n", injector)
	}

	// Atomic (temp+fsync+rename) like the checkpoint writes: a policy server
	// watching this path must never observe a torn model.
	if err := ckpt.AtomicWriteFile(*outPath, func(w io.Writer) error {
		return core.SaveModel(h, w)
	}); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *outPath)

	if spansPath != "" {
		if err := rec.WriteTraceFile(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "genet-train: span trace:", err)
		}
	}
	if *runDir != "" {
		manifest.FinishedAt = time.Now().UTC().Format(time.RFC3339)
		manifest.Outcome = outcome
		if err := obs.WriteManifest(*runDir, manifest); err != nil {
			fmt.Fprintln(os.Stderr, "genet-train: manifest:", err)
		}
	}
}

// visitedFlags captures the flags explicitly set on the command line for the
// run manifest.
func visitedFlags() map[string]string {
	m := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
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
