package genet

import (
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/rl"
)

// TestTrainIterationVecSteadyStateAllocs pins the allocation budget of one
// vectorized train iteration (collect + merge + update) after warmup, for
// each policy head and harness: ABR and LB train the categorical A2C agent,
// CC the Gaussian PPO agent. The steady state is a handful of allocations
// per iteration — episode regeneration, observation encoding, GAE, and the
// sharded update all run through pooled buffers — and this test fails if a
// regression reintroduces per-step or per-episode garbage. ABR's budget is
// 32 (measured ~3, occasional arena/trace regrowth); the CC and LB budgets
// are their measured steady states when the pins were introduced.
func TestTrainIterationVecSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pinning is not meaningful under -short")
	}
	cases := []struct {
		name   string
		budget float64
		iter   func(rng *rand.Rand) (func(), error)
	}{
		{"abr", 32, func(rng *rand.Rand) (func(), error) {
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, 6), rng)
			if err != nil {
				return nil, err
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
			venv := abr.NewVecEnv(abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil)), 2)
			return func() { agent.TrainIterationVec(venv, 100, rng) }, nil
		}},
		{"cc", 22, func(rng *rand.Rand) (func(), error) {
			agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
			if err != nil {
				return nil, err
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
			venv := cc.NewVecEnv(cc.GenFromConfig(env.CCSpace(env.RL1).Default(nil)), 2)
			return func() { agent.TrainIterationVec(venv, 100, rng) }, nil
		}},
		{"cc/update-workers=2", 10, func(rng *rand.Rand) (func(), error) {
			agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
			if err != nil {
				return nil, err
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 2
			venv := cc.NewVecEnv(cc.GenFromConfig(env.CCSpace(env.RL1).Default(nil)), 2)
			return func() { agent.TrainIterationVec(venv, 100, rng) }, nil
		}},
		{"lb", 24, func(rng *rand.Rand) (func(), error) {
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(lb.ObsSize, lb.NumServers), rng)
			if err != nil {
				return nil, err
			}
			agent.RolloutWorkers, agent.UpdateWorkers = 1, 1
			venv := lb.NewVecEnv(lb.GenFromConfig(env.LBSpace(env.RL1).Default(nil)), 2)
			return func() { agent.TrainIterationVec(venv, 100, rng) }, nil
		}},
	}
	// Every case pins the rollout and the update to one worker: goroutine
	// spawns in par.ForN would count as allocations. Results are
	// bit-identical for any worker count, so this loses nothing.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iter, err := tc.iter(rand.New(rand.NewSource(10)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ { // warm every pool and arena past its high-water mark
				iter()
			}
			avg := testing.AllocsPerRun(50, iter)
			t.Logf("%s: %.1f allocs/op", tc.name, avg)
			if avg > tc.budget {
				t.Fatalf("train iteration allocates %.1f/op in steady state, budget %v", avg, tc.budget)
			}
		})
	}
}

// TestRobustMPCEpisodeAllocs pins the allocations of one RobustMPC episode,
// the ABR baseline every Genet BO query replays: the same operation as
// BenchmarkMicro/ABREpisodeRobustMPC, a fresh policy streaming a whole RL3
// video. The budget is the measured count — the policy, its planner
// scratch, the session, and the observation and metrics buffers of
// RunEpisode — so any per-chunk garbage fails it.
func TestRobustMPCEpisodeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pinning is not meaningful under -short")
	}
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 11
	avg := testing.AllocsPerRun(20, func() { inst.Evaluate(abr.NewRobustMPC()) })
	t.Logf("%d chunks: %.1f allocs/episode", inst.Video.NumChunks(), avg)
	if avg > budget {
		t.Fatalf("RobustMPC episode allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestEvalSteadyStateAllocs pins the allocations of one paired evaluation,
// the call every Genet BO query makes: h.Eval over 10 environments of a
// pinned RL3 configuration with the default baseline, after warm-up.
// AllocsPerRun runs at GOMAXPROCS=1, so par.For spawns no goroutines and
// the count is the per-environment cost: instance generation, the
// baseline's policy and planner scratch, episode buffers and the per-call
// seed and sample slices. Greedy inference, the CC episode's per-MI series
// and BBR's bandwidth window allocate nothing per step. The measured steady
// states are abr 583 and cc 453; the budgets add 17, because under the race
// detector sync.Pool drops a random quarter of its Puts, and the fmt
// printers behind each instance's trace name come from one (about 7 more
// per Eval). One per-step allocation in either half of the evaluation is
// hundreds more, so it still fails them.
func TestEvalSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pinning is not meaningful under -short")
	}
	cases := []struct {
		name   string
		budget float64
		cfg    env.Config
		build  func(rng *rand.Rand) (core.Harness, error)
	}{
		{"abr", 600, env.ABRSpace(env.RL3).Default(env.ABRDefaults()), func(rng *rand.Rand) (core.Harness, error) {
			return core.NewABRHarness(env.ABRSpace(env.RL3), rng)
		}},
		{"cc", 470, env.CCSpace(env.RL3).Default(env.CCDefaults()), func(rng *rand.Rand) (core.Harness, error) {
			return core.NewCCHarness(env.CCSpace(env.RL3), rng)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			h, err := tc.build(rng)
			if err != nil {
				t.Fatal(err)
			}
			eval := func() { h.Eval(tc.cfg, 10, core.NeedBaseline, rng) }
			for i := 0; i < 3; i++ {
				eval()
			}
			avg := testing.AllocsPerRun(10, eval)
			t.Logf("%s: %.1f allocs/Eval", tc.name, avg)
			if avg > tc.budget {
				t.Fatalf("10-env Eval allocates %.1f/op in steady state, budget %v", avg, tc.budget)
			}
		})
	}
}
