package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// bandit is a contextual bandit: the observation one-hot encodes the correct
// action; matching it yields reward 1, anything else 0. Episodes last 8
// steps.
type bandit struct {
	nActions int
	step     int
	correct  int
	rng      *rand.Rand
}

func (b *bandit) ObsSize() int    { return b.nActions }
func (b *bandit) NumActions() int { return b.nActions }

func (b *bandit) obs() []float64 {
	o := make([]float64, b.nActions)
	o[b.correct] = 1
	return o
}

func (b *bandit) Reset(rng *rand.Rand) []float64 {
	b.rng = rng
	b.step = 0
	b.correct = rng.Intn(b.nActions)
	return b.obs()
}

func (b *bandit) Step(action int) ([]float64, float64, bool) {
	r := 0.0
	if action == b.correct {
		r = 1
	}
	b.step++
	b.correct = b.rng.Intn(b.nActions)
	return b.obs(), r, b.step >= 8
}

func TestDiscreteAgentLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultDiscreteConfig(3, 3)
	cfg.Entropy = 0.01
	agent, err := NewDiscreteAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 150; i++ {
		last, _ = agent.TrainIterationVec(banditVec(2), 64, rng)
	}
	// A learned policy collects most of the 8 available rewards.
	if last < 6 {
		t.Fatalf("mean episode reward after training = %v, want >= 6", last)
	}
	// Greedy must decode the context.
	for a := 0; a < 3; a++ {
		obs := []float64{0, 0, 0}
		obs[a] = 1
		if got := agent.Greedy(obs); got != a {
			t.Fatalf("greedy(%d-context) = %d", a, got)
		}
	}
}

func TestDiscreteAgentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewDiscreteAgent(DiscreteConfig{ObsSize: 0, NumActions: 2}, rng); err == nil {
		t.Fatal("zero obs accepted")
	}
	if _, err := NewDiscreteAgent(DiscreteConfig{ObsSize: 2, NumActions: 1}, rng); err == nil {
		t.Fatal("single action accepted")
	}
}

func TestDiscreteCollectEpisodeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	b := agent.Collect(&bandit{nActions: 3}, 20, rng)
	if b.Episodes < 2 {
		t.Fatalf("episodes = %d, want >= 2 over 20 steps of 8-step episodes", b.Episodes)
	}
	if len(b.Transitions) < 16 {
		t.Fatalf("transitions = %d", len(b.Transitions))
	}
	// Exactly the last transition of each completed episode is Done.
	dones := 0
	for _, tr := range b.Transitions {
		if tr.Done {
			dones++
		}
	}
	if dones != b.Episodes {
		t.Fatalf("done markers %d != episodes %d", dones, b.Episodes)
	}
}

func TestDiscreteCollectAlwaysFinishesOneEpisode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	// maxSteps 1 is below the episode length; Collect must still finish
	// one full episode.
	b := agent.Collect(&bandit{nActions: 3}, 1, rng)
	if b.Episodes != 1 {
		t.Fatalf("episodes = %d, want 1", b.Episodes)
	}
	if len(b.Transitions) != 8 {
		t.Fatalf("transitions = %d, want full 8-step episode", len(b.Transitions))
	}
}

func TestDiscreteCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	clone := agent.Clone()
	obs := []float64{1, 0, 0}
	before := agent.policy.Forward(obs)
	for i := 0; i < 20; i++ {
		clone.TrainIterationVec(banditVec(1), 32, rng)
	}
	after := agent.policy.Forward(obs)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("training a clone mutated the original")
		}
	}
}

func TestDiscreteSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultDiscreteConfig(4, 3)
	agent, err := NewDiscreteAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDiscreteAgent(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4}
	a, b := agent.policy.Forward(obs), back.policy.Forward(obs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded agent differs")
		}
	}
	if back.Value(obs) != agent.Value(obs) {
		t.Fatal("loaded critic differs")
	}
}

func TestDiscreteLoadRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(4, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDiscreteAgent(DefaultDiscreteConfig(5, 3), &buf); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

// tracker is a continuous task: obs is a target in [-1, 1]; reward is
// -(action - target)^2. Episodes last 8 steps.
type tracker struct {
	step   int
	target float64
	rng    *rand.Rand
}

func (tr *tracker) ObsSize() int   { return 1 }
func (tr *tracker) ActionDim() int { return 1 }

func (tr *tracker) Reset(rng *rand.Rand) []float64 {
	tr.rng = rng
	tr.step = 0
	tr.target = rng.Float64()*2 - 1
	return []float64{tr.target}
}

func (tr *tracker) Step(action []float64) ([]float64, float64, bool) {
	d := action[0] - tr.target
	r := -d * d
	tr.step++
	tr.target = tr.rng.Float64()*2 - 1
	return []float64{tr.target}, r, tr.step >= 8
}

func TestGaussianAgentLearnsTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultGaussianConfig(1, 1)
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		agent.TrainIterationVec(trackerVec(2), 64, rng)
	}
	// The deterministic policy must track targets closely.
	mse := 0.0
	for _, target := range []float64{-0.8, -0.3, 0, 0.4, 0.9} {
		out := agent.Mean([]float64{target})
		mse += (out[0] - target) * (out[0] - target) / 5
	}
	if mse > 0.05 {
		t.Fatalf("tracking MSE after training = %v", mse)
	}
}

func TestGaussianAgentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, err := NewGaussianAgent(GaussianConfig{ObsSize: 0, ActionDim: 1}, rng); err == nil {
		t.Fatal("zero obs accepted")
	}
	if _, err := NewGaussianAgent(GaussianConfig{ObsSize: 1, ActionDim: 0}, rng); err == nil {
		t.Fatal("zero action dim accepted")
	}
}

func TestGaussianStdFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultGaussianConfig(1, 1)
	cfg.MinStd = 0.2
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	agent.logStd[0] = math.Log(1e-9)
	if got := agent.Std()[0]; got < 0.2 {
		t.Fatalf("std %v below floor", got)
	}
}

func TestGaussianLogProbConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	agent, err := NewGaussianAgent(DefaultGaussianConfig(2, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.3, -0.1}
	mean := agent.Mean(obs)
	std := agent.Std()
	var ar floatArena
	action, tr := agent.sample(mean, std, rng, &ar)
	logp := tr.LogProb
	// Recompute the density by hand.
	want := 0.0
	for i := range mean {
		z := (action[i] - mean[i]) / std[i]
		want += -0.5*z*z - math.Log(std[i]) - 0.5*math.Log(2*math.Pi)
	}
	if math.Abs(logp-want) > 1e-9 {
		t.Fatalf("logp = %v, want %v", logp, want)
	}
}

func TestGaussianSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := DefaultGaussianConfig(2, 1)
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGaussianAgent(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.5, -0.5}
	if agent.Mean(obs)[0] != back.Mean(obs)[0] {
		t.Fatal("loaded policy differs")
	}
	if agent.Std()[0] != back.Std()[0] {
		t.Fatal("loaded std differs")
	}
}

func TestGaussianCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	agent, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	clone := agent.Clone()
	obs := []float64{0.4}
	before := agent.Mean(obs)[0]
	for i := 0; i < 10; i++ {
		clone.TrainIterationVec(trackerVec(1), 32, rng)
	}
	if agent.Mean(obs)[0] != before {
		t.Fatal("training a clone mutated the original")
	}
}

func TestGaussianCollectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	agent, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	// 12 steps: one full 8-step episode, then truncation mid-episode.
	b := agent.Collect(&tracker{}, 12, rng)
	if len(b.Transitions) != 12 {
		t.Fatalf("transitions = %d, want 12", len(b.Transitions))
	}
	last := b.Transitions[len(b.Transitions)-1]
	if !last.Truncate || last.Done {
		t.Fatalf("last transition should be truncated: %+v", last)
	}
	if b.Episodes != 1 {
		t.Fatalf("episodes = %d, want 1", b.Episodes)
	}
}

func TestTrainIterationDeterministicUnderParallelism(t *testing.T) {
	// Two identical agents trained with identical seeds must end up with
	// identical parameters even though rollouts run on parallel workers.
	mk := func() *DiscreteAgent {
		rng := rand.New(rand.NewSource(30))
		a, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := mk(), mk()
	rng1 := rand.New(rand.NewSource(31))
	rng2 := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		a1.TrainIterationVec(banditVec(4), 64, rng1)
		a2.TrainIterationVec(banditVec(4), 64, rng2)
	}
	obs := []float64{1, 0, 0}
	p1, p2 := a1.policy.Forward(obs), a2.policy.Forward(obs)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("parallel training nondeterministic: %v vs %v", p1, p2)
		}
	}
}

func TestGaussianTrainIterationDeterministic(t *testing.T) {
	mk := func() *GaussianAgent {
		rng := rand.New(rand.NewSource(32))
		a, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := mk(), mk()
	rng1 := rand.New(rand.NewSource(33))
	rng2 := rand.New(rand.NewSource(33))
	for i := 0; i < 5; i++ {
		a1.TrainIterationVec(trackerVec(4), 64, rng1)
		a2.TrainIterationVec(trackerVec(4), 64, rng2)
	}
	obs := []float64{0.3}
	if a1.Mean(obs)[0] != a2.Mean(obs)[0] {
		t.Fatal("parallel PPO training nondeterministic")
	}
}

// banditVec returns k fresh contextual bandits as one vectorized env.
func banditVec(k int) DiscreteVecEnv {
	envs := make([]DiscreteEnv, k)
	for i := range envs {
		envs[i] = &bandit{nActions: 3}
	}
	return VecDiscrete(envs...)
}

// trackerVec returns k fresh tracking tasks as one vectorized env.
func trackerVec(k int) ContinuousVecEnv {
	envs := make([]ContinuousEnv, k)
	for i := range envs {
		envs[i] = &tracker{}
	}
	return VecContinuous(envs...)
}
