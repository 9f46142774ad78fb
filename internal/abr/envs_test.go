package abr

import (
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

func defaultCfg() env.Config {
	return env.ABRSpace(env.RL3).Default(env.ABRDefaults())
}

func TestNewInstanceSynthetic(t *testing.T) {
	inst, err := NewInstance(defaultCfg(), nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Video.NumChunks() != 49 { // 196s / 4s
		t.Fatalf("chunks = %d, want 49", inst.Video.NumChunks())
	}
	if inst.SimCfg.RTTMs != 80 || inst.SimCfg.MaxBufferSec != 60 {
		t.Fatalf("sim cfg = %+v", inst.SimCfg)
	}
	// Trace bandwidth within [ratio*maxBW, maxBW].
	f := trace.ExtractFeatures(inst.Trace)
	if f.MinBW < 2.5-1e-9 || f.MaxBW > 5+1e-9 {
		t.Fatalf("trace range [%v, %v] outside config [2.5, 5]", f.MinBW, f.MaxBW)
	}
}

func TestNewInstanceTraceDriven(t *testing.T) {
	tr := constTrace(7, 100)
	inst, err := NewInstance(defaultCfg(), tr, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Trace != tr {
		t.Fatal("provided trace was not used")
	}
}

func TestInstanceReplayable(t *testing.T) {
	inst, err := NewInstance(defaultCfg(), nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	m1 := inst.Evaluate(&BBA{})
	m2 := inst.Evaluate(&BBA{})
	if m1.MeanReward != m2.MeanReward {
		t.Fatal("instance replay not deterministic")
	}
}

func TestObsVectorShapeAndRange(t *testing.T) {
	inst, err := NewInstance(defaultCfg(), nil, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	sim := inst.NewSim()
	obs := &Observation{
		ThroughputHist: make([]float64, HistLen),
		DownloadHist:   make([]float64, HistLen),
		Video:          sim.Video(),
		MaxBuffer:      60,
		LastLevel:      -1,
		TotalChunks:    sim.Video().NumChunks(),
		NextSizes:      sim.NextSizesInto(nil),
	}
	v := AppendObsVector(nil, obs)
	if len(v) != ObsSize {
		t.Fatalf("obs len = %d, want %d", len(v), ObsSize)
	}
	for i, x := range v {
		if x < -1e-9 || x > 1.5 {
			t.Fatalf("obs[%d] = %v outside sane range", i, x)
		}
	}
}

func TestRLEnvContract(t *testing.T) {
	e := NewRLEnv(GenFromConfig(defaultCfg()))
	if e.ObsSize() != ObsSize || e.NumActions() != 6 {
		t.Fatalf("env dims: %d, %d", e.ObsSize(), e.NumActions())
	}
	rng := rand.New(rand.NewSource(5))
	obs := e.Reset(rng)
	if len(obs) != ObsSize {
		t.Fatalf("reset obs len = %d", len(obs))
	}
	steps := 0
	done := false
	var r float64
	for !done {
		obs, r, done = e.Step(steps % 6)
		if len(obs) != ObsSize {
			t.Fatalf("step obs len = %d", len(obs))
		}
		steps++
		if steps > 1000 {
			t.Fatal("episode never terminated")
		}
	}
	_ = r
	if steps != 49 {
		t.Fatalf("episode length = %d, want 49 chunks", steps)
	}
	// Env must be reusable after done.
	if got := e.Reset(rng); len(got) != ObsSize {
		t.Fatal("Reset after done failed")
	}
}

func TestRLEnvStepBeforeResetPanics(t *testing.T) {
	e := NewRLEnv(GenFromConfig(defaultCfg()))
	defer func() {
		if recover() == nil {
			t.Fatal("Step before Reset did not panic")
		}
	}()
	e.Step(0)
}

func TestRLEnvRewardsMatchMetrics(t *testing.T) {
	// Driving the RL env with a fixed policy must produce the same total
	// reward as the normalized raw episode on the same instance.
	inst, err := NewInstance(defaultCfg(), nil, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	scale := RewardScale(inst.Trace.Mean(), inst.Video)
	e := NewRLEnv(func(*rand.Rand, *Instance) *Instance { return inst })
	e.Reset(rand.New(rand.NewSource(0)))
	total := 0.0
	done := false
	var r float64
	for !done {
		_, r, done = e.Step(2)
		if r < -5 || r > 2 {
			t.Fatalf("training reward %v outside the clip band", r)
		}
		total += r
	}
	// Recompute the normalized total from the raw episode.
	sim := inst.NewSim()
	want := 0.0
	for !sim.Done() {
		want += TrainReward(sim.Next(2).Reward, scale)
	}
	if diff := total - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("RL env total %v != normalized episode total %v", total, want)
	}
}

func TestABRRewardScale(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	// Below the ladder bottom, at the ladder top, and above it.
	if got := RewardScale(0.05, v); got != 0.3 {
		t.Fatalf("scale(0.05) = %v, want ladder floor 0.3", got)
	}
	if got := RewardScale(2, v); got != 2 {
		t.Fatalf("scale(2) = %v, want 2", got)
	}
	if got := RewardScale(500, v); got != 4.3 {
		t.Fatalf("scale(500) = %v, want ladder top 4.3", got)
	}
}

type constPolicy int

func (constPolicy) Name() string              { return "const" }
func (constPolicy) Reset()                    {}
func (p constPolicy) Select(*Observation) int { return int(p) }

func TestGenFromDistributionUsesTraceSet(t *testing.T) {
	space := env.ABRSpace(env.RL3)
	dist := env.NewDistribution(space)
	set := &trace.Set{Name: "s", Traces: []*trace.Trace{constTrace(3, 50)}}
	gen := GenFromDistribution(dist, set, 1.0) // always trace-driven
	rng := rand.New(rand.NewSource(7))
	inst := gen(rng, nil)
	if inst.Trace != set.Traces[0] {
		t.Fatal("trace-driven generator ignored the trace set")
	}
	genNone := GenFromDistribution(dist, set, 0.0) // never
	inst2 := genNone(rng, inst)                    // reuse must not write the set trace
	if inst2.Trace == set.Traces[0] || set.Traces[0].Bandwidth[0] != 3 {
		t.Fatal("zero trace probability still used the trace set")
	}
}

func TestPickMatchingTraceFiltersByBandwidth(t *testing.T) {
	slow := constTrace(1, 50)
	fast := constTrace(50, 50)
	set := &trace.Set{Traces: []*trace.Trace{slow, fast}}
	cfg := defaultCfg() // max-bw 5, ratio 0.5 -> [2.5, 5]
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		tr := pickMatchingTrace(cfg, set, rng)
		// Neither matches [2.5, 5]: falls back to any trace.
		if tr != slow && tr != fast {
			t.Fatal("unknown trace returned")
		}
	}
	match := constTrace(3, 50)
	set.Traces = append(set.Traces, match)
	for i := 0; i < 10; i++ {
		if tr := pickMatchingTrace(cfg, set, rng); tr != match {
			t.Fatal("matching trace not selected")
		}
	}
}

func TestAgentPolicyAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(ObsSize, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := &AgentPolicy{Agent: agent}
	if p.Name() != "RL" {
		t.Fatalf("name = %q", p.Name())
	}
	p.Label = "custom"
	if p.Name() != "custom" {
		t.Fatalf("labeled name = %q", p.Name())
	}
	inst, err := NewInstance(defaultCfg(), nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Evaluate(p)
	if m.NumChunks == 0 {
		t.Fatal("agent policy produced empty episode")
	}
}
