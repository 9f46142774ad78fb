package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	obslib "github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/stats"
)

// The closed-loop generator in loadgen.go measures what the service can do
// when clients politely wait their turn; this file measures what happens
// when they don't. An open-loop generator offers requests on a fixed
// arrival schedule regardless of completions — the M/*/k view — so pushing
// the offered rate past capacity exposes the saturation behavior the
// ROADMAP asks for: goodput should plateau at capacity while the shed and
// timeout counts absorb the excess, instead of latency diverging for
// everyone.

// ContextDecider is a Decider that accepts a per-request context. Both
// *Server and *Client implement it; the open-loop generator uses it to
// attach per-request deadlines.
type ContextDecider interface {
	DecideCtx(ctx context.Context, obs []float64) (Decision, error)
}

// Arrival names an open-loop arrival process.
type Arrival string

const (
	// ArrivalFixed spaces arrivals exactly 1/rate apart.
	ArrivalFixed Arrival = "fixed"
	// ArrivalPoisson draws seeded exponential inter-arrivals with mean
	// 1/rate — the memoryless process real request streams resemble.
	ArrivalPoisson Arrival = "poisson"
)

// OpenLoopConfig configures one open-loop run at a single offered rate.
type OpenLoopConfig struct {
	// UseCase selects the observation family (abr, cc, lb); it must match
	// the served model.
	UseCase string
	// Arrival is the arrival process (default ArrivalPoisson).
	Arrival Arrival
	// RatePerSec is the offered load (required, > 0).
	RatePerSec float64
	// Requests is the total number of requests offered (default 1000).
	Requests int
	// Seed drives the arrival schedule and the observation pool; the
	// schedule is a pure function of (seed, arrival, rate, requests).
	Seed int64
	// Deadline is the per-request budget (0 = none): requests that
	// exceed it count as timeouts in the report.
	Deadline time.Duration
	// Level picks the environment sampling range for the observation
	// pool (default env.RL1).
	Level env.RangeLevel
	// ObsPool is how many distinct real observations are pre-generated
	// and cycled through (default 256).
	ObsPool int
}

// OutcomeLatency is the latency profile of one outcome class in an
// open-loop run — what the tail is made of, class by class.
type OutcomeLatency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
	P999  float64 `json:"p999_seconds"`
	Max   float64 `json:"max_seconds"`
}

// SlowRequest identifies one of the slowest offered requests: its trace ID
// (resolvable against the server's access log and span trace), outcome, and
// latency.
type SlowRequest struct {
	Trace   obslib.TraceID `json:"trace"`
	Outcome string         `json:"outcome"`
	LatSec  float64        `json:"lat_s"`
}

// OpenLoopReport is the outcome of one open-loop run: every offered
// request is accounted to exactly one of OK, Shed, BreakerFast, Timeout, or
// Errors; Torn counts responses that decoded but failed validation (the
// count the chaos CI pins at zero). The headline latency percentiles cover
// successful decisions only — shed requests fail in microseconds and would
// flatter the tail; Outcomes breaks latency down per class so a sweep can
// say what the tail is made of, and Slowest names the worst traces.
type OpenLoopReport struct {
	UseCase     string                    `json:"usecase"`
	Arrival     string                    `json:"arrival"`
	OfferedRate float64                   `json:"offered_rate_per_sec"`
	Requests    int                       `json:"requests"`
	OK          int64                     `json:"ok"`
	Shed        int64                     `json:"shed"`
	BreakerFast int64                     `json:"breaker_fast_fail"`
	Timeout     int64                     `json:"timeout"`
	Errors      int64                     `json:"errors"`
	Torn        int64                     `json:"torn"`
	Fallback    int64                     `json:"fallback"`
	Wall        time.Duration             `json:"wall_ns"`
	Goodput     float64                   `json:"goodput_per_sec"`
	P50         float64                   `json:"p50_seconds"`
	P90         float64                   `json:"p90_seconds"`
	P99         float64                   `json:"p99_seconds"`
	P999        float64                   `json:"p999_seconds"`
	Max         float64                   `json:"max_seconds"`
	Outcomes    map[string]OutcomeLatency `json:"outcomes,omitempty"`
	Slowest     []SlowRequest             `json:"slowest,omitempty"`
}

// String renders the report as the one-line-per-fact block the CLI prints.
func (r OpenLoopReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "openloop %s %s @ %.0f req/s: %d offered\n",
		r.UseCase, r.Arrival, r.OfferedRate, r.Requests)
	fmt.Fprintf(&b, "  ok %d (%.0f/s goodput)  shed %d  breaker %d  timeout %d  errors %d  torn %d  fallback %d\n",
		r.OK, r.Goodput, r.Shed, r.BreakerFast, r.Timeout, r.Errors, r.Torn, r.Fallback)
	fmt.Fprintf(&b, "  latency p50 %.3fms  p90 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms",
		r.P50*1e3, r.P90*1e3, r.P99*1e3, r.P999*1e3, r.Max*1e3)
	for _, class := range []string{OutcomeOK, OutcomeFallback, OutcomeShed, OutcomeDeadline, "breaker", OutcomeError} {
		ol, present := r.Outcomes[class]
		if !present || ol.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %-8s %6d  p50 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms",
			class, ol.Count, ol.P50*1e3, ol.P99*1e3, ol.P999*1e3, ol.Max*1e3)
	}
	return b.String()
}

// ArrivalSchedule returns the request offsets (from run start) for the
// configured process: a pure function of (seed, arrival, rate, n), so a
// chaos run's offered traffic replays exactly.
func ArrivalSchedule(arrival Arrival, ratePerSec float64, n int, seed int64) ([]time.Duration, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("serve: open-loop rate must be positive, got %v", ratePerSec)
	}
	out := make([]time.Duration, n)
	switch arrival {
	case ArrivalFixed:
		gap := float64(time.Second) / ratePerSec
		for i := range out {
			out[i] = time.Duration(float64(i) * gap)
		}
	case ArrivalPoisson:
		rng := rand.New(rand.NewSource(seed))
		t := 0.0
		for i := range out {
			t += rng.ExpFloat64() / ratePerSec // seconds
			out[i] = time.Duration(t * float64(time.Second))
		}
	default:
		return nil, fmt.Errorf("serve: unknown arrival process %q (want fixed|poisson)", arrival)
	}
	return out, nil
}

// obsPool pre-generates real observation vectors by stepping seeded
// environments with the use case's fallback policy (pure, model-free, so
// the pool is deterministic per (usecase, level, seed) and independent of
// the decider under test).
func obsPool(uc *core.UseCase, level env.RangeLevel, seed int64, n int) [][]float64 {
	pool := make([][]float64, 0, n)
	rng := rand.New(rand.NewSource(seed))
	for len(pool) < n {
		collect := func(obs []float64) (Decision, bool) {
			cp := make([]float64, len(obs))
			copy(cp, obs)
			pool = append(pool, cp)
			if len(pool) >= n {
				return Decision{}, false
			}
			d, err := fallbackDecision(uc, obs)
			if err != nil {
				return Decision{}, false
			}
			return d, true
		}
		runEpisode(uc, level, rng, 64, collect)
	}
	return pool
}

// validDecision checks a decoded decision against the use case's action
// space — the torn-response detector. A healthy or degraded server must
// never emit anything that fails this.
func validDecision(uc *core.UseCase, d Decision) bool {
	if uc.Discrete != nil {
		return d.Action >= 0 && d.Action < uc.Discrete.NumActions
	}
	if d.Action != -1 || len(d.ActionVec) != uc.Gaussian.ActionDim {
		return false
	}
	for _, v := range d.ActionVec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RunOpenLoop offers cfg.Requests requests to d on the configured arrival
// schedule, regardless of completions, and accounts every one. d may be a
// ContextDecider (per-request deadlines) or a plain Decider.
func RunOpenLoop(d Decider, cfg OpenLoopConfig) (OpenLoopReport, error) {
	uc, err := core.LookupUseCase(cfg.UseCase)
	if err != nil {
		return OpenLoopReport{}, fmt.Errorf("serve: %w", err)
	}
	arrival := cfg.Arrival
	if arrival == "" {
		arrival = ArrivalPoisson
	}
	requests := cfg.Requests
	if requests <= 0 {
		requests = 1000
	}
	level := cfg.Level
	if level == 0 {
		level = env.RL1
	}
	poolSize := cfg.ObsPool
	if poolSize <= 0 {
		poolSize = 256
	}

	schedule, err := ArrivalSchedule(arrival, cfg.RatePerSec, requests, cfg.Seed)
	if err != nil {
		return OpenLoopReport{}, err
	}
	pool := obsPool(uc, level, cfg.Seed+1, poolSize)

	cd, hasCtx := d.(ContextDecider)

	// Every offered request gets a deterministic trace ID from the run seed
	// and carries it on its context, so when d is a *Server (or a *Client
	// talking to one) the server's access log and span trace attribute each
	// tail-latency contributor back to the exact offered request.
	traceSeed := uint64(cfg.Seed) ^ 0x6f70656e4c6f6f70 // "openLoop"

	// One slot per offered request: goroutines write disjoint indices, so
	// accounting needs no locks and the post-processing sees every request.
	type reqResult struct {
		outcome string
		lat     float64
		trace   obslib.TraceID
	}
	results := make([]reqResult, requests)

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		// Open loop: wait for the arrival time, then fire regardless of
		// how many requests are still in flight.
		if wait := schedule[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		obsVec := pool[i%len(pool)]
		tid := obslib.NewTraceID(traceSeed, uint64(i)+1)
		wg.Add(1)
		go func(i int, tid obslib.TraceID) {
			defer wg.Done()
			ctx := obslib.WithTrace(context.Background(), tid)
			if cfg.Deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
				defer cancel()
			}
			t0 := time.Now()
			var dec Decision
			var derr error
			if hasCtx {
				dec, derr = cd.DecideCtx(ctx, obsVec)
			} else {
				dec, derr = d.Decide(obsVec)
			}
			res := reqResult{lat: time.Since(t0).Seconds(), trace: tid}
			switch {
			case derr == nil:
				switch {
				case !validDecision(uc, dec):
					res.outcome = "torn"
				case dec.Fallback:
					res.outcome = OutcomeFallback
				default:
					res.outcome = OutcomeOK
				}
			case errors.Is(derr, ErrBreakerOpen):
				res.outcome = "breaker"
			case errors.Is(derr, ErrShed):
				res.outcome = OutcomeShed
			case errors.Is(derr, context.DeadlineExceeded):
				res.outcome = OutcomeDeadline
			default:
				res.outcome = OutcomeError
			}
			results[i] = res
		}(i, tid)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := OpenLoopReport{
		UseCase:     uc.Name,
		Arrival:     string(arrival),
		OfferedRate: cfg.RatePerSec,
		Requests:    requests,
		Wall:        wall,
		Outcomes:    map[string]OutcomeLatency{},
	}
	perClass := map[string][]float64{}
	var okLats []float64
	for _, res := range results {
		perClass[res.outcome] = append(perClass[res.outcome], res.lat)
		switch res.outcome {
		case OutcomeOK:
			rep.OK++
			okLats = append(okLats, res.lat)
		case OutcomeFallback:
			rep.OK++
			rep.Fallback++
			okLats = append(okLats, res.lat)
		case OutcomeShed:
			rep.Shed++
		case "breaker":
			rep.BreakerFast++
		case OutcomeDeadline:
			rep.Timeout++
		case "torn":
			rep.Torn++
		default:
			rep.Errors++
		}
	}
	for class, lats := range perClass {
		rep.Outcomes[class] = OutcomeLatency{
			Count: int64(len(lats)),
			P50:   stats.Percentile(lats, 50),
			P99:   stats.Percentile(lats, 99),
			P999:  stats.Percentile(lats, 99.9),
			Max:   stats.Percentile(lats, 100),
		}
	}
	if wall > 0 {
		rep.Goodput = float64(rep.OK) / wall.Seconds()
	}
	if len(okLats) > 0 {
		rep.P50 = stats.Percentile(okLats, 50)
		rep.P90 = stats.Percentile(okLats, 90)
		rep.P99 = stats.Percentile(okLats, 99)
		rep.P999 = stats.Percentile(okLats, 99.9)
		rep.Max = stats.Percentile(okLats, 100)
	}
	// Slowest offered requests across all outcome classes, worst first: the
	// names to chase through genet-inspect -serve and Perfetto.
	sorted := make([]reqResult, len(results))
	copy(sorted, results)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].lat > sorted[b].lat })
	for i := 0; i < len(sorted) && i < slowestKeep; i++ {
		rep.Slowest = append(rep.Slowest, SlowRequest{
			Trace:   sorted[i].trace,
			Outcome: sorted[i].outcome,
			LatSec:  sorted[i].lat,
		})
	}
	return rep, nil
}

// slowestKeep is how many worst-latency requests a report names.
const slowestKeep = 10

// SaturationReport is a sweep of open-loop runs across offered rates — the
// saturation curve: goodput vs offered load, with shed and timeout counts
// absorbing the excess past capacity.
type SaturationReport struct {
	UseCase string           `json:"usecase"`
	Points  []OpenLoopReport `json:"points"`
}

// String renders the sweep as a fixed-width table.
func (r SaturationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "saturation curve (%s):\n", r.UseCase)
	fmt.Fprintf(&b, "  %10s %10s %8s %8s %8s %8s %10s %10s %10s\n",
		"offered/s", "goodput/s", "shed", "breaker", "timeout", "errors", "p99_ms", "p999_ms", "max_ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %10.0f %10.0f %8d %8d %8d %8d %10.3f %10.3f %10.3f\n",
			p.OfferedRate, p.Goodput, p.Shed, p.BreakerFast, p.Timeout, p.Errors, p.P99*1e3, p.P999*1e3, p.Max*1e3)
	}
	return strings.TrimRight(b.String(), "\n")
}

// RunSaturationSweep runs RunOpenLoop at each offered rate in ascending
// order, reusing cfg for everything but the rate. Each point draws a
// distinct seed from cfg.Seed so schedules differ across rates but the
// whole sweep replays from one seed.
func RunSaturationSweep(d Decider, cfg OpenLoopConfig, rates []float64) (SaturationReport, error) {
	rep := SaturationReport{UseCase: strings.ToLower(cfg.UseCase)}
	for i, rate := range rates {
		c := cfg
		c.RatePerSec = rate
		c.Seed = cfg.Seed + int64(i)*1000003
		p, err := RunOpenLoop(d, c)
		if err != nil {
			return rep, err
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}
