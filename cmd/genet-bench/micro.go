package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/serve"
)

// microResult is one row of the BENCH_*.json baseline. NsPerOp and the
// other headline numbers are medians over the interleaved repetitions;
// NsPerOpReps keeps the raw per-rep values so a later -compare can derive a
// noise-aware tolerance from the observed spread.
type microResult struct {
	Name        string    `json:"name"`
	Iterations  int       `json:"iterations"`
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	NsPerOpReps []float64 `json:"ns_per_op_reps,omitempty"`
}

// scalingPoint is one point of a multi-core scaling curve: one benchmark
// at a fixed worker count (see scalingCurves).
type scalingPoint struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`        // vs the 1-worker point of the same curve
	Gate    bool    `json:"gate,omitempty"` // -compare gates Speedup (see compareScaling)
}

// microBaseline captures the machine context alongside the numbers so
// baselines from different hosts are not compared blindly: -compare gates
// time-per-op only when CPUModel and NumCPU match, and allocation counts
// (machine-independent) always.
type microBaseline struct {
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	CPUModel   string         `json:"cpu_model,omitempty"`
	Reps       int            `json:"reps,omitempty"`
	Results    []microResult  `json:"results"`
	Scaling    []scalingPoint `json:"scaling,omitempty"`
}

// cpuModel returns the CPU model string from /proc/cpuinfo (empty when
// unavailable, e.g. off Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianInt64 is median for int64 samples.
func medianInt64(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n == 0 {
		return 0
	}
	return xs[n/2]
}

// runMicro runs the training hot-path micro-benchmarks via testing.Benchmark and
// writes a JSON baseline to outPath, so the perf trajectory of the training
// loop is tracked in-repo from PR to PR (BENCH_1.json is this PR's
// baseline). The suite mirrors the root-package Benchmark* functions of the
// same names; it is duplicated here because test files are not importable.
func runMicro(outPath string, reps int) error {
	if reps < 3 {
		reps = 3 // the noise-aware compare needs a spread estimate
	}
	// Fail on an unwritable destination before spending minutes benchmarking.
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()

	const (
		batch   = 100
		actions = 6
	)

	newPolicy := func(seed int64) (*nn.MLP, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		return nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, actions), rng
	}

	// The RL rows pin every worker cap to 1: a par.ForN goroutine spawn
	// counts as an allocation, so allocs/op would otherwise follow the
	// host's core count. Results are bit-identical for any worker count.
	//
	// A row with iters set runs exactly that many iterations instead of
	// testing.Benchmark's adaptive b.N. The train-iteration rows need it:
	// the agent's first iteration sizes its pools (~1.4 MB), and bytes/op
	// amortizes that one-off over b.N.
	const fixedTrainIters = 1500
	suite := []struct {
		name  string
		iters int
		fn    func(b *testing.B)
	}{
		{"NNForwardBatch", 0, func(b *testing.B) {
			m, rng := newPolicy(8)
			x := make([]float64, batch*abr.ObsSize)
			for i := range x {
				x[i] = rng.Float64()
			}
			s := m.NewScratch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(s, x, batch)
			}
		}},
		// NNForwardInto is one greedy single-row forward through the ABR
		// policy shape (27→64→32→6): the network half of every served
		// decision and of every greedy evaluation step.
		{"NNForwardInto", 0, func(b *testing.B) {
			m, rng := newPolicy(8)
			x := make([]float64, abr.ObsSize)
			for i := range x {
				x[i] = rng.Float64()
			}
			dst := make([]float64, actions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardInto(dst, x)
			}
		}},
		{"NNBackwardBatch", 0, func(b *testing.B) {
			m, rng := newPolicy(9)
			x := make([]float64, batch*abr.ObsSize)
			for i := range x {
				x[i] = rng.Float64()
			}
			gradOut := make([]float64, batch*actions)
			for i := range gradOut {
				gradOut[i] = rng.NormFloat64() / batch
			}
			grads := m.NewGrads()
			s := m.NewScratch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatchCache(s, x, batch)
				m.BackwardBatch(s, gradOut, grads)
			}
		}},
		{"RLUpdate", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.UpdateWorkers = 1
			gen := abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil))
			e := abr.NewRLEnv(gen)
			bt := agent.Collect(e, 200, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Update(bt)
				b.StopTimer()
				bt = agent.Collect(e, 200, rng)
				b.StartTimer()
			}
		}},
		{"CheckpointWrite", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var state bytes.Buffer
				if err := agent.SaveState(&state); err != nil {
					b.Fatal(err)
				}
				w := ckpt.NewWriter()
				if err := w.Add("agent", state.Bytes()); err != nil {
					b.Fatal(err)
				}
				if err := w.AddGob("rng", ckpt.RandState{Seed: 13, Count: uint64(i)}); err != nil {
					b.Fatal(err)
				}
				if err := w.WriteFile(path); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CheckpointRead", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			var state bytes.Buffer
			if err := agent.SaveState(&state); err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			w := ckpt.NewWriter()
			if err := w.Add("agent", state.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := w.AddGob("rng", ckpt.RandState{Seed: 13}); err != nil {
				b.Fatal(err)
			}
			if err := w.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := ckpt.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sec, err := f.Section("agent")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rl.LoadDiscreteAgentState(bytes.NewReader(sec)); err != nil {
					b.Fatal(err)
				}
				var rst ckpt.RandState
				if err := f.Gob("rng", &rst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// RLTrainIterationABR is the production training hot path: the
		// vectorized engine over the native in-place-regenerating ABR env,
		// exactly what the harnesses run.
		{"RLTrainIterationABR", fixedTrainIters, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
			venv := abr.NewVecEnv(abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil)), 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.TrainIterationVec(venv, batch, rng)
			}
		}},
		{"CheckpointReadPooled", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			var state bytes.Buffer
			if err := agent.SaveState(&state); err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			w := ckpt.NewWriter()
			if err := w.Add("agent", state.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := w.AddGob("rng", ckpt.RandState{Seed: 13}); err != nil {
				b.Fatal(err)
			}
			if err := w.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			pool := ckpt.NewReadPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := pool.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sec, err := f.Section("agent")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rl.LoadDiscreteAgentState(bytes.NewReader(sec)); err != nil {
					b.Fatal(err)
				}
				var rst ckpt.RandState
				if err := f.Gob("rng", &rst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The span-overhead pair: the RL hot path is instrumented with
		// flight-recorder spans, so the disabled (nil-recorder) cost must
		// stay at zero allocations and a handful of nanoseconds —
		// RLTrainIterationABR above IS the disabled path and must match
		// earlier baselines alloc-for-alloc. The enabled variants price the
		// opt-in cost of -rundir/-introspect.
		{"SpanStartEndDisabled", 0, func(b *testing.B) {
			var rec *obs.Recorder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := rec.Start("rl/update")
				if rec.Enabled() {
					sp.EndArgs(obs.Arg{K: "transitions", V: float64(i)})
				} else {
					sp.End()
				}
			}
		}},
		{"SpanStartEndEnabled", 0, func(b *testing.B) {
			rec := obs.NewRecorder(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := rec.Start("rl/update")
				if rec.Enabled() {
					sp.EndArgs(obs.Arg{K: "transitions", V: float64(i)})
				} else {
					sp.End()
				}
			}
		}},
		{"RLTrainIterationABRRecorded", fixedTrainIters, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
			agent.Recorder = obs.NewRecorder(0)
			venv := abr.NewVecEnv(abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil)), 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.TrainIterationVec(venv, batch, rng)
			}
		}},
		// ABREpisodeRobustMPC is one RobustMPC episode on the instance of
		// BenchmarkABREpisodeMPC: the rule-based baseline every ABR BO
		// query replays in CalcBaselineGap.
		{"ABREpisodeRobustMPC", 0, func(b *testing.B) {
			cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
			inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.Evaluate(abr.NewRobustMPC())
			}
		}},
		// ServeDecideInstrumented is one in-process ABR decision on a
		// server set up as genet-serve runs it: metrics registry,
		// admission gate, and an observer with sampled spans, an SLO
		// tracker and an access log.
		{"ServeDecideInstrumented", 0, func(b *testing.B) {
			srv, x := instrumentedABRServer(b)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.DecideCtx(ctx, x); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// ServeDecideParallel is the same server driven by b.RunParallel,
		// so GOMAXPROCS callers share one registry, access log, SLO
		// tracker and policy network, as perfbench serve-inproc's callers
		// do.
		{"ServeDecideParallel", 0, func(b *testing.B) {
			srv, x := instrumentedABRServer(b)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := srv.DecideCtx(ctx, x); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}},
		// EvalABR and EvalCC are one paired evaluation, the call every
		// Genet BO query makes: h.Eval over 10 environments of a pinned
		// RL3 configuration with the default baseline (the operation of
		// TestEvalSteadyStateAllocs). Environments run on par.For at
		// GOMAXPROCS, so allocs/op includes its goroutine spawns.
		{"EvalABR", 0, evalBench(core.NewABRHarness, env.ABRSpace(env.RL3), env.ABRDefaults())},
		{"EvalCC", 0, evalBench(core.NewCCHarness, env.CCSpace(env.RL3), env.CCDefaults())},
	}

	base := microBaseline{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Reps:       reps,
	}
	// Repetitions are interleaved — the full suite runs end to end reps
	// times, not each benchmark reps times back to back — so slow drift in
	// machine state (thermal, cache pollution from another tenant) lands
	// across all benchmarks instead of biasing one, and the per-rep spread
	// honestly reflects run-to-run noise.
	type agg struct {
		iters  int
		ns     []float64
		bytes  []int64
		allocs []int64
	}
	aggs := make([]agg, len(suite))
	for rep := 0; rep < reps; rep++ {
		for i, mb := range suite {
			fmt.Fprintf(os.Stderr, "micro %s (rep %d/%d)...\n", mb.name, rep+1, reps)
			r := benchmark(mb.fn, mb.iters)
			a := &aggs[i]
			a.iters = r.N
			a.ns = append(a.ns, float64(r.T.Nanoseconds())/float64(r.N))
			a.bytes = append(a.bytes, r.AllocedBytesPerOp())
			a.allocs = append(a.allocs, r.AllocsPerOp())
		}
	}
	for i, mb := range suite {
		a := &aggs[i]
		repsCopy := append([]float64(nil), a.ns...)
		base.Results = append(base.Results, microResult{
			Name:        mb.name,
			Iterations:  a.iters,
			NsPerOp:     median(a.ns),
			BytesPerOp:  medianInt64(a.bytes),
			AllocsPerOp: medianInt64(a.allocs),
			NsPerOpReps: repsCopy,
		})
	}
	base.Scaling = runScalingSweep()

	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if _, err := out.Write(append(data, '\n')); err != nil {
		return err
	}
	return out.Close()
}

// evalBench returns the benchmark of one 10-environment NeedBaseline Eval
// on a harness built by newHarness, at space's defaults.
func evalBench[H core.Harness](newHarness func(*env.Space, *rand.Rand) (H, error), space *env.Space, defaults map[string]float64) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(11))
		h, err := newHarness(space, rng)
		if err != nil {
			b.Fatal(err)
		}
		cfg := space.Default(defaults)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Eval(cfg, 10, core.NeedBaseline, rng)
		}
	}
}

// instrumentedABRServer builds the ServeDecide rows' server: an ABR policy
// behind a metrics registry, an admission gate, and an observer with
// sampled spans, an SLO tracker and an access log in a temporary directory
// removed when b finishes. It returns the server and an observation.
func instrumentedABRServer(b *testing.B) (*serve.Server, []float64) {
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)), rand.New(rand.NewSource(14)))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		b.Fatal(err)
	}
	model, err := serve.ReadModel("abr", &buf)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New("abr", model, metrics.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	srv.Configure(serve.RobustnessOptions{MaxInflight: 256, ShedWait: 5 * time.Millisecond})
	dir, err := os.MkdirTemp("", "genet-micro")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	alog, err := serve.OpenAccessLog(filepath.Join(dir, "access.jsonl"), 16<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { alog.Close() })
	srv.Instrument(serve.NewObserver(serve.ObserverConfig{
		Recorder:  obs.NewRecorder(0),
		AccessLog: alog,
		SLO:       serve.NewSLOTracker(serve.SLOConfig{}),
		Seed:      14,
	}))
	x := make([]float64, abr.ObsSize)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	return srv, x
}

// benchmark runs fn through testing.Benchmark: for exactly iters
// iterations when iters > 0, for the adaptive b.N otherwise.
func benchmark(fn func(b *testing.B), iters int) testing.BenchmarkResult {
	if iters <= 0 {
		return testing.Benchmark(fn)
	}
	// testing.Benchmark reads its iteration budget from -test.benchtime,
	// which testing.Init registers; "Nx" means exactly N iterations.
	testing.Init()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", iters)); err != nil {
		panic(err)
	}
	defer flag.Set("test.benchtime", "1s")
	return testing.Benchmark(fn)
}

// scalingCurve is one worker-count sweep of the scaling curve: bench
// returns the benchmark at w workers. Results are bit-identical at every
// point (the rl determinism contract), so a curve isolates pure scheduling
// overhead and parallel speedup. A gated curve's speedups are gated by
// -compare (see compareScaling).
type scalingCurve struct {
	name    string
	workers []int
	gate    bool
	bench   func(w int) func(b *testing.B)
}

// scalingCurves are the curves of the scaling sweep:
//   - VecCollectABR: the vectorized ABR collect over 8 slots at 1-8
//     rollout workers;
//   - RLUpdateCC: one PPO update of the Gaussian agent at the CC shape over
//     an 800-transition batch, at 1 and 2 update workers (its policy and
//     value lanes one after the other, then concurrently).
var scalingCurves = []scalingCurve{
	{name: "VecCollectABR", workers: []int{1, 2, 4, 8}, bench: func(w int) func(b *testing.B) {
		const (
			width   = 8
			perSlot = 100
		)
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.RolloutWorkers = w
			venv := abr.NewVecEnv(abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil)), width)
			seeds := make([]int64, width)
			for i := range seeds {
				seeds[i] = rng.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.CollectVec(venv, perSlot, seeds)
			}
		}
	}},
	{name: "RLUpdateCC", workers: []int{1, 2}, gate: true, bench: func(w int) func(b *testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.UpdateWorkers = w
			e := cc.NewRLEnv(cc.GenFromConfig(env.CCSpace(env.RL1).Default(nil)))
			bt := agent.Collect(e, 800, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Update(bt, rng)
			}
		}
	}},
}

// runScalingSweep benchmarks every scaling curve at its worker counts.
// Speedup is against the 1-worker point of the same curve. On a
// single-core machine the curves are flat by construction; the committed
// BENCH_*.json records NumCPU and GOMAXPROCS so flat curves are
// interpretable.
func runScalingSweep() []scalingPoint {
	var points []scalingPoint
	for _, c := range scalingCurves {
		base := 0.0
		for _, w := range c.workers {
			fmt.Fprintf(os.Stderr, "scaling %s workers=%d...\n", c.name, w)
			r := testing.Benchmark(c.bench(w))
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if base == 0 {
				base = ns
			}
			points = append(points, scalingPoint{
				Name:    c.name,
				Workers: w,
				NsPerOp: ns,
				Speedup: base / ns,
				Gate:    c.gate,
			})
		}
	}
	return points
}
