package lb

import (
	stdmath "math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
)

// Equivalence contract of the vectorized LB environment: CollectVec over
// NewVecEnv(gen, k) is bit-identical per slot to sequential Collect over
// NewRLEnv(gen), its width-1 slot view, with the same seed, including the
// zero terminal observation.

func lbSameBatches(t *testing.T, tag string, seq, vec *rl.Batch) {
	t.Helper()
	if seq.Episodes != vec.Episodes || seq.TotalReward != vec.TotalReward {
		t.Fatalf("%s: header diverges", tag)
	}
	if len(seq.Transitions) != len(vec.Transitions) {
		t.Fatalf("%s: %d sequential vs %d vectorized transitions",
			tag, len(seq.Transitions), len(vec.Transitions))
	}
	for j := range seq.Transitions {
		s, v := seq.Transitions[j], vec.Transitions[j]
		for d := range s.Obs {
			if stdmath.Float64bits(s.Obs[d]) != stdmath.Float64bits(v.Obs[d]) {
				t.Fatalf("%s step %d dim %d: obs %v vs %v", tag, j, d, s.Obs[d], v.Obs[d])
			}
		}
		if s.Action != v.Action || s.LogProb != v.LogProb || s.Reward != v.Reward ||
			s.Value != v.Value || s.Done != v.Done || s.Truncate != v.Truncate ||
			s.LastVal != v.LastVal {
			t.Fatalf("%s step %d: transitions diverge\nseq: %+v\nvec: %+v", tag, j, s, v)
		}
	}
}

func lbVecEquivCheck(t *testing.T, tag string, gen EnvGen, width, perSlot int) {
	t.Helper()
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(ObsSize, NumServers), rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, width)
	for i := range seeds {
		seeds[i] = int64(6000 + 19*i)
	}
	seq := make([]*rl.Batch, width)
	for i := range seq {
		seq[i] = agent.Collect(NewRLEnv(gen), perSlot, rand.New(rand.NewSource(seeds[i])))
	}
	venv := NewVecEnv(gen, width)
	_ = agent.CollectVec(venv, perSlot, seeds)
	vec := agent.CollectVec(venv, perSlot, seeds) // reused slot state
	for i := range seq {
		lbSameBatches(t, tag, seq[i], vec[i])
	}
}

func TestVecEnvMatchesRLEnvConfig(t *testing.T) {
	cfg := defaultLBCfg(t, 40)
	for _, width := range []int{1, 2, 4} {
		lbVecEquivCheck(t, "config", GenFromConfig(cfg), width, 90)
	}
}

func TestVecEnvMatchesRLEnvDistribution(t *testing.T) {
	dist := env.NewDistribution(env.LBSpace(env.RL3))
	for _, width := range []int{1, 3} {
		lbVecEquivCheck(t, "distribution", GenFromDistribution(dist), width, 90)
	}
}
