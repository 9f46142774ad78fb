package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

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

// obsStack is the assembled per-run observability plumbing: the run
// directory, flight recorder, rotating access log, request observer, and the
// manifest that finalize stamps with the run's outcome.
type obsStack struct {
	dir      string
	rec      *obs.Recorder
	alog     *serve.AccessLog
	observer *serve.Observer
	reg      *metrics.Registry
	manifest obs.Manifest
}

// setupObs builds the observability stack under a.runDir, mirroring the
// genet-train run-directory layout (manifest.json, events.jsonl,
// spans.trace.json) plus the serving access log. Returns (nil, nil) when
// -rundir is unset, so callers stay on the zero-cost path.
func setupObs(a obsArgs, strategy, useCase string, seed int64, reg *metrics.Registry) (*obsStack, error) {
	if a.runDir == "" {
		return nil, nil
	}
	if err := obs.CreateRunDir(a.runDir); err != nil {
		return nil, err
	}
	alog, err := serve.OpenAccessLog(filepath.Join(a.runDir, obs.AccessLogFile), a.accessMax, a.accessKeep)
	if err != nil {
		return nil, err
	}
	sink, err := metrics.FileSink(filepath.Join(a.runDir, obs.EventsFile))
	if err != nil {
		alog.Close()
		return nil, err
	}
	reg.SetSink(sink)
	reg.EmitTagged("run/start",
		map[string]string{"tool": "genet-serve", "usecase": useCase, "strategy": strategy},
		metrics.F{K: "seed", V: float64(seed)})

	rec := obs.NewRecorder(0)
	st := &obsStack{
		dir:  a.runDir,
		rec:  rec,
		alog: alog,
		reg:  reg,
		observer: serve.NewObserver(serve.ObserverConfig{
			Recorder:    rec,
			AccessLog:   alog,
			SLO:         serve.NewSLOTracker(a.slo),
			SampleEvery: a.sampleEvery,
			Seed:        a.seed,
		}),
		manifest: obs.Manifest{
			Tool:      "genet-serve",
			UseCase:   useCase,
			Strategy:  strategy,
			Seed:      seed,
			Flags:     visitedFlags(),
			GoVersion: runtime.Version(),
			StartedAt: time.Now().UTC().Format(time.RFC3339),
			Outcome:   obs.OutcomeRunning,
		},
	}
	if err := obs.WriteManifest(a.runDir, st.manifest); err != nil {
		alog.Close()
		return nil, err
	}
	fmt.Printf("genet-serve: run directory %s (trace sample 1/%d)\n", a.runDir, a.sampleEvery)
	return st, nil
}

// finalize flushes every artifact and stamps the manifest outcome. A manifest
// still reading "running" afterwards means the process died before reaching
// this path. Safe on a nil stack.
func (st *obsStack) finalize(outcome string) {
	if st == nil {
		return
	}
	st.reg.EmitSnapshot()
	if err := st.reg.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve: metrics:", err)
	}
	if err := st.rec.WriteTraceFile(filepath.Join(st.dir, obs.SpansFile)); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve: span trace:", err)
	}
	if err := st.alog.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve: access log:", err)
	}
	if n := st.observer.AccessLogDrops(); n > 0 {
		fmt.Fprintf(os.Stderr, "genet-serve: access log dropped %d lines\n", n)
	}
	st.manifest.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	st.manifest.Outcome = outcome
	if err := obs.WriteManifest(st.dir, st.manifest); err != nil {
		fmt.Fprintln(os.Stderr, "genet-serve: manifest:", err)
	}
}

// visitedFlags captures the flags explicitly set on the command line for the
// run manifest.
func visitedFlags() map[string]string {
	m := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}
