package genet

import (
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/bo"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/experiments"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/microbench"
	"github.com/genet-go/genet/internal/nn"
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

// BenchmarkMicro runs the gated micro suite that genet-bench -micro records
// into BENCH_*.json, one sub-benchmark per row, so a row can be profiled:
// go test -run '^$' -bench 'BenchmarkMicro/EvalABR$' -cpuprofile cpu.out .
// The train-iteration rows are recorded at -benchtime 1500x.
func BenchmarkMicro(b *testing.B) {
	for _, row := range microbench.Rows {
		b.Run(row.Name, row.Bench)
	}
}

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
