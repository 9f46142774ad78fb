package cc

import (
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

func defaultCCCfg() env.Config {
	return env.CCSpace(env.RL3).Default(env.CCDefaults())
}

func TestNewInstanceFromConfig(t *testing.T) {
	inst, err := NewInstance(defaultCCCfg(), nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Link.OneWayDelayMs != 50 { // min-rtt 100 / 2
		t.Fatalf("one-way delay = %v", inst.Link.OneWayDelayMs)
	}
	if inst.Link.QueuePackets != 10 || inst.Link.RandomLoss != 0 {
		t.Fatalf("link = %+v", inst.Link)
	}
	if inst.Duration != EpisodeDuration {
		t.Fatalf("duration = %v", inst.Duration)
	}
	// §A.2: CC bandwidth drawn from [1, maxBW].
	f := trace.ExtractFeatures(inst.Trace)
	if f.MinBW < 1-1e-9 || f.MaxBW > 3.16+1e-9 {
		t.Fatalf("trace range [%v, %v]", f.MinBW, f.MaxBW)
	}
}

func TestNewInstanceTraceDriven(t *testing.T) {
	tr := constCCTrace(7, 60)
	inst, err := NewInstance(defaultCCCfg(), tr, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Trace != tr {
		t.Fatal("provided trace ignored")
	}
}

func TestApplyRateActionAsymmetric(t *testing.T) {
	up := ApplyRateAction(1, 1)
	down := ApplyRateAction(1, -1)
	if up <= 1 || down >= 1 {
		t.Fatalf("up=%v down=%v", up, down)
	}
	// Aurora's mapping: up then down returns to the start.
	if got := ApplyRateAction(ApplyRateAction(1, 1), -1); got < 0.999 || got > 1.001 {
		t.Fatalf("up-down round trip = %v, want 1", got)
	}
}

func TestApplyRateActionClamps(t *testing.T) {
	if got := ApplyRateAction(0.01, -10); got < 0.01 {
		t.Fatalf("rate floor broken: %v", got)
	}
	if got := ApplyRateAction(1e9, 10); got > 2000 {
		t.Fatalf("rate ceiling broken: %v", got)
	}
}

func TestRLEnvContract(t *testing.T) {
	e := NewRLEnv(GenFromConfig(defaultCCCfg()))
	if e.ObsSize() != ObsSize || e.ActionDim() != 1 {
		t.Fatalf("dims = %d, %d", e.ObsSize(), e.ActionDim())
	}
	rng := rand.New(rand.NewSource(3))
	obs := e.Reset(rng)
	if len(obs) != ObsSize {
		t.Fatalf("obs len = %d", len(obs))
	}
	steps := 0
	done := false
	for !done {
		obs, _, done = e.Step([]float64{0.1})
		if len(obs) != ObsSize {
			t.Fatal("bad obs len")
		}
		for _, v := range obs {
			if v < 0 || v > 1 {
				t.Fatalf("obs value %v outside [0,1]", v)
			}
		}
		steps++
		if steps > 10000 {
			t.Fatal("episode never ended")
		}
	}
	// 30 s / 100 ms MI = ~300 steps.
	if steps < 250 || steps > 350 {
		t.Fatalf("episode steps = %d, want ~300", steps)
	}
}

func TestRLEnvStepBeforeResetPanics(t *testing.T) {
	e := NewRLEnv(GenFromConfig(defaultCCCfg()))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Step([]float64{0})
}

func TestGenFromDistributionTraceFiltering(t *testing.T) {
	dist := env.NewDistribution(env.CCSpace(env.RL3))
	slow := constCCTrace(2, 30)
	set := &trace.Set{Traces: []*trace.Trace{slow}}
	gen := GenFromDistribution(dist, set, 1.0)
	inst := gen(rand.New(rand.NewSource(4)), nil)
	if inst.Trace != slow {
		t.Fatal("trace set ignored at probability 1")
	}
	genNone := GenFromDistribution(dist, nil, 1.0)
	if inst2 := genNone(rand.New(rand.NewSource(5)), inst); inst2.Trace == slow {
		t.Fatal("nil set produced a set trace")
	}
}

func TestAgentSenderDeterministicGivenModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(ObsSize, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(defaultCCCfg(), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	m1 := inst.Evaluate(&AgentSender{Agent: agent}, rand.New(rand.NewSource(8)))
	m2 := inst.Evaluate(&AgentSender{Agent: agent}, rand.New(rand.NewSource(8)))
	if m1.MeanReward != m2.MeanReward {
		t.Fatal("agent evaluation not deterministic with same seeds")
	}
	if (&AgentSender{Agent: agent}).Name() != "Aurora" {
		t.Fatal("default agent name")
	}
}

func TestMIFeaturesBounded(t *testing.T) {
	f := miFeatures(MIStats{SendRate: 1e9, Throughput: 1e-12, AvgLatency: 100, BaseRTT: 0.01, LossRate: 2})
	for i, v := range f {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %v outside [0,1]", i, v)
		}
	}
}

func TestEvaluateOracleBetterThanFixedLow(t *testing.T) {
	inst, err := NewInstance(defaultCCCfg(), nil, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	oracle := inst.EvaluateOracle(rand.New(rand.NewSource(1)))
	fixed := inst.Evaluate(&FixedRate{Rate: 0.1}, rand.New(rand.NewSource(1)))
	if oracle.MeanReward <= fixed.MeanReward {
		t.Fatalf("oracle %v <= trickle sender %v", oracle.MeanReward, fixed.MeanReward)
	}
}
