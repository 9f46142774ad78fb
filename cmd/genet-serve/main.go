// Command genet-serve is the policy-serving data plane: it loads a trained
// model (from genet-train or a genet-fleet cell), answers decisions over
// HTTP, and atomically hot-swaps the policy whenever the watched file is
// republished — a torn or mismatched file is rejected and the live policy
// keeps serving.
//
// Serve a model, watching it for republishes:
//
//	genet-serve -usecase abr -model runs/abr/model.bin -addr 127.0.0.1:9090
//
// Endpoints: /healthz (liveness), /readyz (readiness — 503 while the model
// is quarantined and the rule-based fallback is serving), /metrics
// (Prometheus text, with decision-latency p50/p99 gauges and the
// shed/deadline/degraded counters), POST /decide {"obs":[...]}, /model.
//
// The server survives overload and model failure by design: concurrent
// decisions are bounded by -max-inflight (excess load is shed with 503 +
// Retry-After), each /decide runs under the -deadline budget (504 on
// exhaustion), and -quarantine-after consecutive decide panics or
// non-finite outputs switch the use case to its deterministic rule-based
// fallback until probes of the model succeed again. Chaos sites on this
// path (-inject 'decide-latency:50,decide-error:20,swap-corrupt:1') make
// that machinery testable.
//
// Drive a load test instead of serving (-target hits a running server over
// HTTP; without -target the model is served in-process). Closed loop (N
// sessions in lockstep) is the default; -arrival fixed|poisson switches to
// an open-loop arrival process that offers -rate requests/s regardless of
// completions, and -sweep measures a whole saturation curve:
//
//	genet-serve -loadgen -usecase abr -model runs/abr/model.bin -sessions 10000
//	genet-serve -loadgen -usecase abr -target http://127.0.0.1:9090 \
//	    -arrival poisson -rate 2000 -requests 4000 -deadline 100ms
//	genet-serve -loadgen -usecase abr -target http://127.0.0.1:9090 \
//	    -arrival poisson -sweep 500,1000,2000,4000 -report saturation.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/serve"
)

func main() {
	var (
		useCase   = flag.String("usecase", "abr", "use case: abr|cc|lb")
		modelPath = flag.String("model", "", "model file or run directory to serve (required unless -loadgen -target)")
		addr      = flag.String("addr", "127.0.0.1:9090", "serve address")
		watchIvl  = flag.Duration("watch", 500*time.Millisecond, "poll interval for hot-swapping the model file (0 disables)")

		deadline    = flag.Duration("deadline", time.Second, "per-request decide budget; loadgen: per-request client budget (0 disables)")
		maxInflight = flag.Int("max-inflight", 256, "bound on concurrent decisions; excess is shed with 503 (0 disables)")
		shedWait    = flag.Duration("shed-wait", 5*time.Millisecond, "how long an arriving request may wait for a seat before shedding")
		quarAfter   = flag.Int("quarantine-after", 3, "consecutive model failures that quarantine the model (-1 disables)")
		probeEvery  = flag.Int("probe-every", 16, "degraded mode: probe the model every Nth decide")
		recovAfter  = flag.Int("recover-after", 3, "consecutive good probes that restore full service")
		injectSpec  = flag.String("inject", "", "chaos fault spec, e.g. 'decide-latency:50,decide-error:20,swap-corrupt:1'")
		injectSeed  = flag.Int64("inject-seed", 1, "seed for the deterministic fault injector")
		spike       = flag.Duration("spike", 50*time.Millisecond, "stall injected when decide-latency fires")
		drain       = flag.Duration("drain", 10*time.Second, "bound on the SIGINT graceful drain before abandoning in-flight requests")

		runDir      = flag.String("rundir", "", "write the standard run artifacts (manifest.json, events.jsonl, spans.trace.json, access.jsonl) into this directory and enable request-level observability")
		traceSample = flag.Int("trace-sample", serve.DefaultSampleEvery, "record spans for every Nth request (1 = all)")
		obsSeed     = flag.Uint64("trace-seed", 1, "seed for server-side trace-ID minting")
		accessMaxMB = flag.Int64("access-max-mb", 64, "access log rotation bound per file, in MiB")
		accessKeep  = flag.Int("access-keep", 3, "rotated access-log files to retain")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability SLO target (fraction of requests served)")
		sloLatPct   = flag.Float64("slo-latency-target", 0.99, "latency SLO target (fraction of served requests under the threshold)")
		sloLatThr   = flag.Duration("slo-latency-threshold", 250*time.Millisecond, "latency SLO threshold")

		loadgen  = flag.Bool("loadgen", false, "run the load generator instead of serving")
		target   = flag.String("target", "", "loadgen: base URL of a running genet-serve (default: serve -model in-process)")
		sessions = flag.Int("sessions", 100, "loadgen closed loop: number of simulated sessions")
		workers  = flag.Int("workers", 0, "loadgen closed loop: concurrent sessions (default GOMAXPROCS)")
		steps    = flag.Int("steps", 64, "loadgen closed loop: max decisions per session")
		seed     = flag.Int64("seed", 1, "loadgen: random seed")
		level    = flag.String("level", "rl1", "loadgen: environment range rl1|rl2|rl3")
		arrival  = flag.String("arrival", "closed", "loadgen arrival process: closed|fixed|poisson")
		rate     = flag.Float64("rate", 1000, "loadgen open loop: offered requests/s")
		requests = flag.Int("requests", 1000, "loadgen open loop: total requests per rate")
		sweep    = flag.String("sweep", "", "loadgen open loop: comma-separated offered rates for a saturation sweep (overrides -rate)")
		report   = flag.String("report", "", "loadgen open loop: write the JSON report to this file")
		breaker  = flag.Int("breaker-threshold", 0, "loadgen client circuit breaker: consecutive failures before failing fast (0 = default 8, -1 disables)")
	)
	flag.Parse()

	inj, err := faults.ParseSpec(*injectSeed, *injectSpec)
	if err != nil {
		fatal(err)
	}
	uc, err := core.LookupUseCase(*useCase)
	if err != nil {
		fatal(err)
	}

	oa := obsArgs{
		runDir:      *runDir,
		sampleEvery: *traceSample,
		seed:        *obsSeed,
		accessMax:   *accessMaxMB << 20,
		accessKeep:  *accessKeep,
		slo: serve.SLOConfig{
			AvailabilityTarget: *sloAvail,
			LatencyTarget:      *sloLatPct,
			LatencyThreshold:   *sloLatThr,
		},
	}

	if *loadgen {
		lg := loadGenArgs{
			useCase: uc.Name, modelPath: *modelPath, target: *target,
			sessions: *sessions, workers: *workers, steps: *steps,
			seed: *seed, level: *level,
			arrival: *arrival, rate: *rate, requests: *requests,
			sweep: *sweep, report: *report, deadline: *deadline,
			breaker: *breaker, inj: inj, obs: oa,
		}
		if err := runLoadGen(lg); err != nil {
			fatal(err)
		}
		return
	}
	sc := serveArgs{
		useCase: uc.Name, modelPath: *modelPath, addr: *addr, watchIvl: *watchIvl,
		obs: oa,
		robust: serve.RobustnessOptions{
			MaxInflight: *maxInflight,
			ShedWait:    *shedWait,
			Deadline:    *deadline,
			Degrade: serve.DegradeConfig{
				QuarantineAfter: *quarAfter,
				ProbeEvery:      *probeEvery,
				RecoverAfter:    *recovAfter,
			},
			Injector:     inj,
			LatencySpike: *spike,
		},
		drain: *drain,
	}
	if err := runServe(sc); err != nil {
		fatal(err)
	}
}

type serveArgs struct {
	useCase, modelPath, addr string
	watchIvl                 time.Duration
	robust                   serve.RobustnessOptions
	drain                    time.Duration
	obs                      obsArgs
}

func runServe(a serveArgs) error {
	if a.modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	path := resolveModelPath(a.modelPath)
	m, err := serve.LoadModel(a.useCase, path)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	s, err := serve.New(a.useCase, m, reg)
	if err != nil {
		return err
	}
	s.Configure(a.robust)
	if a.robust.Injector != nil {
		fmt.Fprintf(os.Stderr, "genet-serve: chaos: injecting faults (%s)\n", a.robust.Injector)
	}
	st, err := setupObs(a.obs, "serve", a.useCase, int64(a.obs.seed), reg)
	if err != nil {
		return err
	}
	if st != nil {
		s.Instrument(st.observer)
	}

	srv, err := obs.StartHandler(a.addr, serve.NewHandler(s), func(err error) {
		fmt.Fprintln(os.Stderr, "genet-serve: server died:", err)
		os.Exit(1)
	})
	if err != nil {
		return err
	}
	fmt.Printf("genet-serve: serving %s model v%d (obs %d) on http://%s\n",
		s.UseCase(), m.Version(), m.ObsSize(), srv.Addr)
	fmt.Printf("genet-serve: max-inflight %d, deadline %s, quarantine after %d failures\n",
		a.robust.MaxInflight, a.robust.Deadline, a.robust.Degrade.QuarantineAfter)

	var w *serve.Watcher
	if a.watchIvl > 0 {
		w = serve.Watch(s, a.modelPath, a.watchIvl, func(p string, err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "genet-serve:", err)
				return
			}
			fmt.Printf("genet-serve: hot-swapped %s -> model v%d\n", p, s.Swaps())
		})
		fmt.Printf("genet-serve: watching %s every %s\n", a.modelPath, a.watchIvl)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("genet-serve: draining (up to %s)\n", a.drain)
	if w != nil {
		w.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// A wedged in-flight request must not hang shutdown forever: the
		// drain is bounded, and what it abandons is on the record.
		fmt.Fprintf(os.Stderr, "genet-serve: drain deadline hit, abandoning %d in-flight requests: %v\n",
			s.Inflight(), err)
		cerr := srv.Close()
		st.finalize(obs.OutcomeInterrupted)
		return cerr
	}
	fmt.Println("genet-serve: drained clean")
	st.finalize(obs.OutcomeCompleted)
	return nil
}

type loadGenArgs struct {
	useCase, modelPath, target string
	sessions, workers, steps   int
	seed                       int64
	level                      string
	arrival                    string
	rate                       float64
	requests                   int
	sweep, report              string
	deadline                   time.Duration
	breaker                    int
	inj                        *faults.Injector
	obs                        obsArgs
}

func runLoadGen(a loadGenArgs) error {
	lvl, err := env.ParseRangeLevel(a.level)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	var (
		dec serve.Decider
		srv *serve.Server
		cli *serve.Client
	)
	switch {
	case a.target != "":
		cli = serve.NewClientSeeded(a.target, a.seed)
		cli.Injector = a.inj
		if a.breaker != 0 {
			cli.BreakerThreshold = a.breaker
		}
		dec = cli
		fmt.Printf("genet-serve: loadgen against %s\n", a.target)
	case a.modelPath != "":
		m, err := serve.LoadModel(a.useCase, resolveModelPath(a.modelPath))
		if err != nil {
			return err
		}
		srv, err = serve.New(a.useCase, m, reg)
		if err != nil {
			return err
		}
		dec = srv
		fmt.Println("genet-serve: loadgen against in-process policy")
	default:
		return fmt.Errorf("-loadgen needs -model or -target")
	}

	st, err := setupObs(a.obs, "loadgen", a.useCase, a.seed, reg)
	if err != nil {
		return err
	}
	if st != nil {
		// In-process: the server observes every request end to end. Against a
		// remote target only the client side is local, so the run directory
		// captures attempt/backoff/breaker spans rather than an access log.
		if srv != nil {
			srv.Instrument(st.observer)
		}
		if cli != nil {
			cli.Recorder = st.run.Recorder
		}
	}
	runErr := driveLoad(dec, srv, a, lvl)
	outcome := obs.OutcomeCompleted
	if runErr != nil {
		outcome = obs.OutcomeFailed
	}
	st.finalize(outcome)
	return runErr
}

func driveLoad(dec serve.Decider, srv *serve.Server, a loadGenArgs, lvl env.RangeLevel) error {
	if a.arrival != "closed" || a.sweep != "" {
		return runOpenLoop(dec, a, lvl)
	}

	rep, err := serve.RunLoadGen(dec, serve.LoadGenConfig{
		UseCase:  a.useCase,
		Sessions: a.sessions,
		Workers:  a.workers,
		Seed:     a.seed,
		MaxSteps: a.steps,
		Level:    lvl,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	// In-process runs also have the server's bucketed view — print it so a
	// loadgen run doubles as a check of the /metrics percentiles.
	if srv != nil {
		snap := srv.Snapshot()
		if p50, ok := snap.Gauges[serve.MetricDecideP50]; ok {
			fmt.Printf("  server histogram view: p50 %.3fms  p99 %.3fms\n",
				p50*1e3, snap.Gauges[serve.MetricDecideP99]*1e3)
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d decisions failed", rep.Errors)
	}
	return nil
}

// runOpenLoop drives the open-loop generator: one rate, or a sweep across
// rates producing the saturation curve.
func runOpenLoop(dec serve.Decider, a loadGenArgs, lvl env.RangeLevel) error {
	arrival := serve.Arrival(a.arrival)
	if a.arrival == "closed" {
		// -sweep with the default arrival: a sweep is open-loop by
		// definition; default to poisson.
		arrival = serve.ArrivalPoisson
	}
	cfg := serve.OpenLoopConfig{
		UseCase:    a.useCase,
		Arrival:    arrival,
		RatePerSec: a.rate,
		Requests:   a.requests,
		Seed:       a.seed,
		Deadline:   a.deadline,
		Level:      lvl,
	}

	var out any
	if a.sweep != "" {
		rates, err := parseRates(a.sweep)
		if err != nil {
			return err
		}
		rep, err := serve.RunSaturationSweep(dec, cfg, rates)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		out = rep
	} else {
		rep, err := serve.RunOpenLoop(dec, cfg)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		out = rep
	}
	if a.report != "" {
		f, err := os.Create(a.report)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("genet-serve: report written to %s\n", a.report)
	}
	return nil
}

func parseRates(spec string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q (want positive number)", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-sweep given but no rates parsed from %q", spec)
	}
	return rates, nil
}

// resolveModelPath lets users point at a run directory instead of the
// model file inside it.
func resolveModelPath(path string) string {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return path + string(os.PathSeparator) + obs.ModelFile
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genet-serve:", err)
	os.Exit(1)
}
