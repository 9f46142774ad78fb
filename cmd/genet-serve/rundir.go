package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/serve"
)

// obsArgs carries the -rundir observability flags into runServe/runLoadGen.
type obsArgs struct {
	runDir      string
	sampleEvery int
	seed        uint64
	accessMax   int64
	accessKeep  int
	slo         serve.SLOConfig
}

// obsStack is the serving side of a run directory: the shared run lifecycle
// (manifest, events, span trace) plus the rotating access log and the
// request observer feeding both.
type obsStack struct {
	run      *obs.Run
	alog     *serve.AccessLog
	observer *serve.Observer
}

// setupObs opens the run directory a.runDir with the standard layout plus
// the serving access log. Returns (nil, nil) when -rundir is unset, so
// callers stay on the zero-cost path.
func setupObs(a obsArgs, strategy, useCase string, seed int64, reg *metrics.Registry) (*obsStack, error) {
	if a.runDir == "" {
		return nil, nil
	}
	run, err := obs.OpenRun(obs.RunConfig{
		Dir:     a.runDir,
		Metrics: reg,
		Manifest: obs.Manifest{
			Tool:     "genet-serve",
			UseCase:  useCase,
			Strategy: strategy,
			Seed:     seed,
			Flags:    obs.CommandLineFlags(),
		},
	})
	if err != nil {
		return nil, err
	}
	alog, err := serve.OpenAccessLog(filepath.Join(a.runDir, obs.AccessLogFile), a.accessMax, a.accessKeep)
	if err != nil {
		run.Finish(obs.OutcomeFailed)
		return nil, err
	}
	st := &obsStack{
		run:  run,
		alog: alog,
		observer: serve.NewObserver(serve.ObserverConfig{
			Recorder:    run.Recorder,
			AccessLog:   alog,
			SLO:         serve.NewSLOTracker(a.slo),
			SampleEvery: a.sampleEvery,
			Seed:        a.seed,
		}),
	}
	fmt.Printf("genet-serve: run directory %s (trace sample 1/%d)\n", a.runDir, a.sampleEvery)
	return st, nil
}

// finalize closes the access log and finishes the run with outcome. A
// manifest still reading "running" afterwards means the process died before
// reaching this path. Safe on a nil stack.
func (st *obsStack) finalize(outcome string) {
	if st == nil {
		return
	}
	if err := st.alog.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve: access log:", err)
	}
	if n := st.observer.AccessLogDrops(); n > 0 {
		fmt.Fprintf(os.Stderr, "genet-serve: access log dropped %d lines\n", n)
	}
	if err := st.run.Finish(outcome); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve:", err)
	}
}
