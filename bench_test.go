package genet

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/bo"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/experiments"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/rl"
)

// benchExperiment runs one registered paper experiment end to end at smoke
// scale. Use cmd/genet-bench with -scale ci|full for results whose shape
// matches the paper; these benchmarks exist to exercise and time every
// experiment pipeline (one per table and figure).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := runner(experiments.Smoke, int64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per paper artifact (figures 2-22 of the evaluation and the
// appendix tables).
func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2") }  // motivation: RL vs baselines across range widths
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }  // motivation: CC generalization failures
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }  // motivation: trace set X vs Y (incl. Fig 5 features)
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }  // gap-to-baseline correlation
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }  // headline: Genet vs RL1-3, three use cases
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") } // ABR per-parameter sweeps
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") } // LB per-parameter sweeps
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") } // trace+synthetic mixing ratios
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") } // generalization to trace sets
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") } // per-baseline Genet training
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") } // fraction of traces beating baseline
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") } // emulated real-world paths
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") } // reward-component frontier
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") } // training curves vs CL1-3
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") } // Robustify comparison
func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20") } // BO vs random vs grid search
func BenchmarkFig22(b *testing.B) { benchExperiment(b, "fig22") } // doubled budgets (appendix A.8)

// BenchmarkTable6 regenerates the ABR reward breakdown of Table 6 (part of
// the fig16 pipeline).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkTable7 regenerates the CC reward breakdown of Table 7.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// --- substrate micro-benchmarks ---

func BenchmarkABRChunkDownload(b *testing.B) {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sim := inst.NewSim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sim.Done() {
			sim = inst.NewSim()
		}
		sim.Next(i % 6)
	}
}

func BenchmarkABREpisodeMPC(b *testing.B) {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Evaluate(abr.NewRobustMPC())
	}
}

func BenchmarkABREpisodeOmniscient(b *testing.B) {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.EvaluateOmniscient()
	}
}

func BenchmarkCCMonitorInterval(b *testing.B) {
	cfg := env.CCSpace(env.RL3).Default(env.CCDefaults())
	inst, err := cc.NewInstance(cfg, nil, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	sim := inst.NewSim(rand.New(rand.NewSource(5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunMI(2)
	}
}

func BenchmarkCCEpisodeBBR(b *testing.B) {
	cfg := env.CCSpace(env.RL3).Default(env.CCDefaults())
	inst, err := cc.NewInstance(cfg, nil, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Evaluate(cc.NewBBR(), rand.New(rand.NewSource(int64(i))))
	}
}

func BenchmarkLBWorkloadLLF(b *testing.B) {
	cfg := env.LBSpace(env.RL3).Default(env.LBDefaults()).With(env.LBNumJobs, 1000)
	e, err := lb.NewEnvFromConfig(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(lb.LLF{}, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, 6)
	x := make([]float64, abr.ObsSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkNNForwardBatch times the batched forward over a rollout-sized
// [100 x obs] matrix with a warm scratch; steady state is allocation-free.
func BenchmarkNNForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, 6)
	const batch = 100
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
}

// BenchmarkNNBackwardBatch times forward+backward over a rollout-sized batch
// with warm scratch and grads; steady state is allocation-free.
func BenchmarkNNBackwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, 6)
	const batch = 100
	x := make([]float64, batch*abr.ObsSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	gradOut := make([]float64, batch*6)
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
}

func BenchmarkRLTrainIterationABR(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, 6), rng)
	if err != nil {
		b.Fatal(err)
	}
	agent.RolloutWorkers, agent.UpdateWorkers = 1, 1 // see cmd/genet-bench's micro suite
	cfg := env.ABRSpace(env.RL1).Default(nil)
	venv := abr.NewVecEnv(abr.GenFromConfig(cfg), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.TrainIterationVec(venv, 100, rng)
	}
}

// BenchmarkRLUpdate isolates the sharded minibatch update (GAE + gradients +
// optimizer step) on a 200-transition ABR batch, recollected outside the
// timer whenever the previous update invalidates the rollout cache.
func BenchmarkRLUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, 6), rng)
	if err != nil {
		b.Fatal(err)
	}
	agent.UpdateWorkers = 1
	cfg := env.ABRSpace(env.RL1).Default(nil)
	gen := abr.GenFromConfig(cfg)
	e := abr.NewRLEnv(gen)
	batch := agent.Collect(e, 200, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update(batch)
		b.StopTimer()
		batch = agent.Collect(e, 200, rng)
		b.StartTimer()
	}
}

func BenchmarkGPFitPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n, d = 15, 6
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		ys[i] = rng.NormFloat64()
	}
	q := make([]float64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp := bo.NewGP()
		if err := gp.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		gp.Predict(q)
	}
}

func BenchmarkBOSearch(b *testing.B) {
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s -= (v - 0.3) * (v - 0.3)
		}
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bo.Maximize(f, bo.Options{Dims: 6, Steps: 15}, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWrite times one atomic checkpoint write (agent state
// capture + container encode + temp/sync/rename) for an ABR-sized agent —
// the per-round persistence cost a checkpointed training run pays.
func BenchmarkCheckpointWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, 6), rng)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ckpt")
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
}

// BenchmarkCheckpointRead times parsing a checkpoint (CRC verification
// included) and restoring the agent from its state section — the fixed cost
// of a resume.
func BenchmarkCheckpointRead(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, 6), rng)
	if err != nil {
		b.Fatal(err)
	}
	var state bytes.Buffer
	if err := agent.SaveState(&state); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.ckpt")
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
}

// BenchmarkGenetRound times one full curriculum round (search + promote +
// train) on the ABR harness: the unit of Algorithm 2.
func BenchmarkGenetRound(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < b.N; i++ {
		h, err := NewABRHarness(ABRSpace(RL2), rng)
		if err != nil {
			b.Fatal(err)
		}
		h.EnvsPerIter, h.StepsPerIter = 2, 100
		if _, err := NewTrainer(h, Options{
			Rounds: 1, ItersPerRound: 2, BOSteps: 3, EnvsPerEval: 1, WarmupIters: 1,
		}).Run(rng); err != nil {
			b.Fatal(err)
		}
	}
}
