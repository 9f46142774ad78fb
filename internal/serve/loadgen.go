package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/par"
	"github.com/genet-go/genet/internal/stats"
)

// Decider is anything that can answer a policy query: a *Server in-process,
// or a *Client over HTTP. The load generator drives either, so the same
// closed loop measures the raw policy and the full network path.
type Decider interface {
	Decide(obs []float64) (Decision, error)
}

// LoadGenConfig configures a closed-loop load run: Sessions simulated
// streaming sessions, each a fresh environment for the use case, stepped
// against the decider until the episode ends or MaxSteps is hit.
type LoadGenConfig struct {
	// UseCase selects the environment family (abr, cc, lb). It must match
	// the served model.
	UseCase string
	// Sessions is the number of simulated sessions (default 100).
	Sessions int
	// Workers caps concurrent sessions (default GOMAXPROCS).
	Workers int
	// Seed makes the run reproducible: the same seed yields the same
	// environments and, against the same model, the same decision count.
	Seed int64
	// MaxSteps caps decisions per session (default 64) so pathological
	// episodes cannot run the generator forever.
	MaxSteps int
	// Level picks the environment sampling range (default env.RL1, the
	// paper's small range — short, fast episodes suited to load testing).
	Level env.RangeLevel
}

// LoadGenReport summarizes a load run. Latency percentiles are computed
// from the exact per-decision samples (stats.Percentile), not histogram
// buckets, so the report is the high-fidelity view next to the server's
// bucketed /metrics gauges.
type LoadGenReport struct {
	UseCase   string        `json:"usecase"`
	Sessions  int           `json:"sessions"`
	Decisions int64         `json:"decisions"`
	Errors    int64         `json:"errors"`
	Wall      time.Duration `json:"wall_ns"`
	QPS       float64       `json:"qps"`
	P50       float64       `json:"p50_seconds"`
	P90       float64       `json:"p90_seconds"`
	P99       float64       `json:"p99_seconds"`
}

// String renders the report as the one-line-per-fact block the CLI prints.
func (r LoadGenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen %s: %d sessions, %d decisions, %d errors\n",
		r.UseCase, r.Sessions, r.Decisions, r.Errors)
	fmt.Fprintf(&b, "  wall %.3fs  sustained %.0f decisions/s\n", r.Wall.Seconds(), r.QPS)
	fmt.Fprintf(&b, "  latency p50 %.3fms  p90 %.3fms  p99 %.3fms",
		r.P50*1e3, r.P90*1e3, r.P99*1e3)
	return b.String()
}

// sessionResult is one session's contribution, indexed by session so the
// merge is deterministic regardless of scheduling (par discipline).
type sessionResult struct {
	decisions int64
	errors    int64
	latencies []float64
}

// RunLoadGen drives cfg.Sessions closed-loop sessions against d and
// reports throughput and latency. Each session samples an environment
// configuration from the use case's parameter space, resets it, and steps
// it with the decider's actions — real observation vectors, not synthetic
// noise, so the decision path is exercised exactly as production would.
//
// Determinism: per-session seeds are drawn sequentially up front, so with
// an in-process deterministic decider the total decision count depends
// only on (seed, sessions, max steps, model bytes).
func RunLoadGen(d Decider, cfg LoadGenConfig) (LoadGenReport, error) {
	uc, err := core.LookupUseCase(cfg.UseCase)
	if err != nil {
		return LoadGenReport{}, fmt.Errorf("serve: %w", err)
	}
	sessions := cfg.Sessions
	if sessions <= 0 {
		sessions = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 64
	}
	level := cfg.Level
	if level == 0 {
		level = env.RL1
	}

	// Draw per-session seeds from one sequential source before the parallel
	// loop — the par package's determinism discipline.
	seedSrc := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, sessions)
	for i := range seeds {
		seeds[i] = seedSrc.Int63()
	}

	results := make([]sessionResult, sessions)
	start := time.Now()
	par.ForN(sessions, workers, func(i int) {
		rng := rand.New(rand.NewSource(seeds[i]))
		results[i] = runSession(d, uc, level, rng, maxSteps)
	})
	wall := time.Since(start)

	rep := LoadGenReport{UseCase: uc.Name, Sessions: sessions, Wall: wall}
	var all []float64
	for i := range results {
		rep.Decisions += results[i].decisions
		rep.Errors += results[i].errors
		all = append(all, results[i].latencies...)
	}
	if wall > 0 {
		rep.QPS = float64(rep.Decisions) / wall.Seconds()
	}
	if len(all) > 0 {
		rep.P50 = stats.Percentile(all, 50)
		rep.P90 = stats.Percentile(all, 90)
		rep.P99 = stats.Percentile(all, 99)
	}
	return rep, nil
}

// runSession plays one episode. A decider error ends the session (and is
// counted): against a live server that signals a misconfigured client or a
// down service, and retrying in a tight loop would only melt the report.
func runSession(d Decider, uc *core.UseCase, level env.RangeLevel, rng *rand.Rand, maxSteps int) sessionResult {
	var res sessionResult
	runEpisode(uc, level, rng, maxSteps, func(obsVec []float64) (Decision, bool) {
		t0 := time.Now()
		dec, err := d.Decide(obsVec)
		res.latencies = append(res.latencies, time.Since(t0).Seconds())
		if err != nil {
			res.errors++
			return Decision{}, false
		}
		res.decisions++
		return dec, true
	})
	return res
}

// runEpisode steps one episode of a fresh environment sampled from the
// level's space, asking decide for each action; a false return ends the
// episode early.
func runEpisode(uc *core.UseCase, level env.RangeLevel, rng *rand.Rand, maxSteps int, decide func([]float64) (Decision, bool)) {
	var (
		obsVec []float64
		step   func(Decision) ([]float64, float64, bool)
	)
	if uc.NewDiscreteEnv != nil {
		e := uc.NewDiscreteEnv(level, rng)
		obsVec = e.Reset(rng)
		step = func(d Decision) ([]float64, float64, bool) { return e.Step(d.Action) }
	} else {
		e := uc.NewContinuousEnv(level, rng)
		obsVec = e.Reset(rng)
		step = func(d Decision) ([]float64, float64, bool) { return e.Step(d.ActionVec) }
	}
	for i := 0; i < maxSteps; i++ {
		dec, ok := decide(obsVec)
		if !ok {
			return
		}
		var done bool
		obsVec, _, done = step(dec)
		if done {
			return
		}
	}
}
