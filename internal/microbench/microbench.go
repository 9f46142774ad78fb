// Package microbench is the gated micro-benchmark suite of the training and
// serving hot paths. genet-bench -micro runs its rows and scaling curves
// into a BENCH_*.json baseline that -compare gates; the root package's
// BenchmarkMicro runs the same rows under go test, so each can be profiled
// with -cpuprofile. A row's name, order, seed, shape and setup are what the
// committed baselines measured: change one only with a new baseline.
package microbench

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
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

// Row is one benchmark of the suite. Iters, when positive, is the exact
// iteration count genet-bench runs it for instead of testing.Benchmark's
// adaptive b.N.
type Row struct {
	Name  string
	Iters int
	Bench func(b *testing.B)
}

const (
	batch   = 100 // rollout-sized batch of the NN and train-iteration rows
	actions = 6   // the ABR bitrate ladder, len(abr.DefaultBitratesKbps)

	// trainIters pins the train-iteration rows: the agent's first
	// iteration sizes its pools (~1.4 MB), and bytes/op amortizes that
	// one-off over b.N.
	trainIters = 1500
)

// Rows is the suite in baseline order.
//
// The RL rows pin every worker cap to 1: a par.ForN goroutine spawn counts
// as an allocation, so allocs/op would otherwise follow the host's core
// count. Results are bit-identical for any worker count.
var Rows = []Row{
	{"NNForwardBatch", 0, func(b *testing.B) {
		m, rng := abrPolicy(8)
		x := uniform(rng, batch*abr.ObsSize)
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
		m, rng := abrPolicy(8)
		x := uniform(rng, abr.ObsSize)
		dst := make([]float64, actions)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ForwardInto(dst, x)
		}
	}},
	{"NNBackwardBatch", 0, func(b *testing.B) {
		m, rng := abrPolicy(9)
		x := uniform(rng, batch*abr.ObsSize)
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
	// RLUpdate isolates the sharded minibatch update (GAE + gradients +
	// optimizer step) on a 200-transition ABR batch, recollected outside
	// the timer because an update invalidates the rollout cache.
	{"RLUpdate", 0, func(b *testing.B) {
		agent, rng := abrAgent(b, 10)
		agent.UpdateWorkers = 1
		e := abr.NewRLEnv(rl1Gen())
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
	// CheckpointWrite is one atomic checkpoint write (state capture,
	// container encode, temp/sync/rename): the per-round persistence cost
	// of a checkpointed run.
	{"CheckpointWrite", 0, func(b *testing.B) {
		agent, _ := abrAgent(b, 13)
		path := filepath.Join(b.TempDir(), "bench.ckpt")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			writeCheckpoint(b, agent, path, uint64(i))
		}
	}},
	{"CheckpointRead", 0, checkpointRead(false)},
	// RLTrainIterationABR is the production training hot path: the
	// vectorized engine over the native in-place-regenerating ABR env,
	// exactly what the harnesses run.
	{"RLTrainIterationABR", trainIters, trainIterationABR(false)},
	{"CheckpointReadPooled", 0, checkpointRead(true)},
	// The span-overhead pair: the RL hot path is instrumented with
	// flight-recorder spans, so the disabled (nil-recorder) cost must stay
	// at zero allocations and a handful of nanoseconds —
	// RLTrainIterationABR above IS the disabled path and must match earlier
	// baselines alloc-for-alloc. The enabled variants price the opt-in
	// cost of -rundir/-introspect.
	{"SpanStartEndDisabled", 0, spanStartEnd(false)},
	{"SpanStartEndEnabled", 0, spanStartEnd(true)},
	{"RLTrainIterationABRRecorded", trainIters, trainIterationABR(true)},
	// ABREpisodeRobustMPC is one RobustMPC episode on a pinned RL3
	// instance: the rule-based baseline every ABR BO query replays in
	// CalcBaselineGap.
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
	// ServeDecideInstrumented is one in-process ABR decision on a server
	// set up as genet-serve runs it: metrics registry, admission gate, and
	// an observer with sampled spans, an SLO tracker and an access log.
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
	// ServeDecideParallel is the same server driven by b.RunParallel, so
	// GOMAXPROCS callers share one registry, access log, SLO tracker and
	// policy network, as perfbench serve-inproc's callers do.
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
	// EvalABR and EvalCC are one paired evaluation, the call every Genet
	// BO query makes: h.Eval over 10 environments of a pinned RL3
	// configuration with the default baseline (the operation of
	// TestEvalSteadyStateAllocs). Environments run on par.For at
	// GOMAXPROCS, so allocs/op includes its goroutine spawns.
	{"EvalABR", 0, evalBench(core.NewABRHarness, env.ABRSpace(env.RL3), env.ABRDefaults())},
	{"EvalCC", 0, evalBench(core.NewCCHarness, env.CCSpace(env.RL3), env.CCDefaults())},
	// AdamStep is one Adam step over the CC policy shape (31→32→16→1,
	// 1,569 parameters): the optimizer apply of every PPO minibatch.
	{"AdamStep", 0, func(b *testing.B) {
		rng := rand.New(rand.NewSource(11))
		m := nn.MustMLP(rng, nn.Tanh, cc.ObsSize, 32, 16, 1)
		w := m.NewGrads().Wire()
		for _, rows := range [][][]float64{w.Weights, w.Biases} {
			for _, row := range rows {
				for i := range row {
					row[i] = rng.NormFloat64() * 1e-2
				}
			}
		}
		g := nn.GradsFromWire(w)
		opt := nn.NewAdam(3e-3)
		opt.Step(m, g) // allocates the moment estimates
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Step(m, g)
		}
	}},
}

// abrPolicy returns an ABR-policy-shaped network (27→64→32→6) and the rng
// that initialized it, seeded with seed.
func abrPolicy(seed int64) (*nn.MLP, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	return nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, actions), rng
}

// uniform returns n draws of rng.Float64.
func uniform(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// abrAgent returns a default ABR discrete agent and the rng that
// initialized it, seeded with seed.
func abrAgent(b *testing.B, seed int64) (*rl.DiscreteAgent, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
	if err != nil {
		b.Fatal(err)
	}
	return agent, rng
}

// rl1Gen returns the generator of the RL1 ABR space's default config.
func rl1Gen() abr.InstanceGen { return abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil)) }

// writeCheckpoint writes agent's state and an rng position count to path as
// a training checkpoint does.
func writeCheckpoint(b *testing.B, agent *rl.DiscreteAgent, path string, count uint64) {
	var state bytes.Buffer
	if err := agent.SaveState(&state); err != nil {
		b.Fatal(err)
	}
	w := ckpt.NewWriter()
	if err := w.Add("agent", state.Bytes()); err != nil {
		b.Fatal(err)
	}
	if err := w.AddGob("rng", ckpt.RandState{Seed: 13, Count: count}); err != nil {
		b.Fatal(err)
	}
	if err := w.WriteFile(path); err != nil {
		b.Fatal(err)
	}
}

// checkpointRead returns the benchmark of a resume's fixed cost: parsing a
// checkpoint (CRC verification included) and restoring the agent from its
// state section, read with ckpt.ReadFile or, when pooled, a ckpt.ReadPool.
func checkpointRead(pooled bool) func(b *testing.B) {
	return func(b *testing.B) {
		agent, _ := abrAgent(b, 13)
		path := filepath.Join(b.TempDir(), "bench.ckpt")
		writeCheckpoint(b, agent, path, 0)
		read := ckpt.ReadFile
		if pooled {
			read = ckpt.NewReadPool().ReadFile
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := read(path)
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
	}
}

// trainIterationABR returns the benchmark of one ABR training iteration,
// with a flight recorder attached when recorded.
func trainIterationABR(recorded bool) func(b *testing.B) {
	return func(b *testing.B) {
		agent, rng := abrAgent(b, 10)
		agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
		if recorded {
			agent.Recorder = obs.NewRecorder(0)
		}
		venv := abr.NewVecEnv(rl1Gen(), 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agent.TrainIterationVec(venv, batch, rng)
		}
	}
}

// spanStartEnd returns the benchmark of one span as the RL update records
// it, on a live recorder when enabled and a nil one otherwise.
func spanStartEnd(enabled bool) func(b *testing.B) {
	return func(b *testing.B) {
		var rec *obs.Recorder
		if enabled {
			rec = obs.NewRecorder(0)
		}
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
	}
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
// sampled spans, an SLO tracker and an access log in b's temporary
// directory. It returns the server and an observation.
func instrumentedABRServer(b *testing.B) (*serve.Server, []float64) {
	agent, _ := abrAgent(b, 14)
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
	alog, err := serve.OpenAccessLog(filepath.Join(b.TempDir(), "access.jsonl"), 16<<20, 1)
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

// Curve is one worker-count sweep of the scaling curves: Bench returns the
// benchmark at w workers. Results are bit-identical at every point (the rl
// determinism contract), so a curve isolates pure scheduling overhead and
// parallel speedup. genet-bench -compare gates a Gate curve's speedups.
type Curve struct {
	Name    string
	Workers []int
	Gate    bool
	Bench   func(w int) func(b *testing.B)
}

// Curves are the scaling curves:
//   - VecCollectABR: the vectorized ABR collect over 8 slots at 1-8
//     rollout workers;
//   - RLUpdateCC: one PPO update of the Gaussian agent at the CC shape over
//     an 800-transition batch, at 1 and 2 update workers (its policy and
//     value lanes one after the other, then concurrently).
var Curves = []Curve{
	{Name: "VecCollectABR", Workers: []int{1, 2, 4, 8}, Bench: func(w int) func(b *testing.B) {
		const (
			width   = 8
			perSlot = 100
		)
		return func(b *testing.B) {
			agent, rng := abrAgent(b, 10)
			agent.RolloutWorkers = w
			venv := abr.NewVecEnv(rl1Gen(), width)
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
	{Name: "RLUpdateCC", Workers: []int{1, 2}, Gate: true, Bench: func(w int) func(b *testing.B) {
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
