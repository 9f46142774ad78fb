package cc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

// Equivalence contract of the native vectorized CC environment: CollectVec
// over NewVecEnv(GenFromX(...), k) is bit-identical per slot to sequential
// Collect over NewRLEnv(GenFromX(...)) with the same seed, also on reused
// slot state. This is stronger than in the discrete case because one rng
// stream drives the instance draw, the connection's loss/delay noise, the
// initial-rate draw, AND the action sampling — any reordering of a single
// draw diverges immediately.

func ccSameBatches(t *testing.T, tag string, seq, vec *rl.Batch) {
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
			if math.Float64bits(s.Obs[d]) != math.Float64bits(v.Obs[d]) {
				t.Fatalf("%s step %d dim %d: obs %v vs %v", tag, j, d, s.Obs[d], v.Obs[d])
			}
		}
		for d := range s.ActionC {
			if math.Float64bits(s.ActionC[d]) != math.Float64bits(v.ActionC[d]) {
				t.Fatalf("%s step %d: action diverges", tag, j)
			}
		}
		if s.LogProb != v.LogProb || s.Reward != v.Reward || s.Value != v.Value ||
			s.Done != v.Done || s.Truncate != v.Truncate || s.LastVal != v.LastVal {
			t.Fatalf("%s step %d: transitions diverge\nseq: %+v\nvec: %+v", tag, j, s, v)
		}
	}
}

func ccVecEquivCheck(t *testing.T, tag string, gen InstanceGen, width, perSlot int) {
	t.Helper()
	agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(ObsSize, 1), rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, width)
	for i := range seeds {
		seeds[i] = int64(5000 + 17*i)
	}
	seq := make([]*rl.Batch, width)
	for i := range seq {
		seq[i] = agent.Collect(NewRLEnv(gen), perSlot, rand.New(rand.NewSource(seeds[i])))
	}
	venv := NewVecEnv(gen, width)
	_ = agent.CollectVec(venv, perSlot, seeds)
	vec := agent.CollectVec(venv, perSlot, seeds) // reused slot state
	for i := range seq {
		ccSameBatches(t, tag, seq[i], vec[i])
	}
}

func TestVecEnvMatchesRLEnvConfig(t *testing.T) {
	cfg := defaultCCCfg()
	for _, width := range []int{1, 2, 4} {
		ccVecEquivCheck(t, "config", GenFromConfig(cfg), width, 80)
	}
}

func TestVecEnvMatchesRLEnvDistribution(t *testing.T) {
	dist := env.NewDistribution(env.CCSpace(env.RL3))
	tr := &trace.Trace{Name: "const", Timestamps: []float64{0, 30}, Bandwidth: []float64{3, 3}}
	set := &trace.Set{Name: "s", Traces: []*trace.Trace{tr}}
	gen := GenFromDistribution(dist, set, 0.5)
	for _, width := range []int{1, 3} {
		ccVecEquivCheck(t, "distribution", gen, width, 80)
	}
}

// TestRegenInstanceMatchesNewInstance pins the generators' rng contract:
// regenerating into one dirty instance, episode after episode, produces the
// same trace, link and duration as a fresh NewInstance with an
// identically-seeded rng. Configurations vary per episode, so every
// synthetic episode overwrites a scratch left by a different draw, and
// trace-driven episodes in between park the scratch while the instance
// aliases the shared trace.
func TestRegenInstanceMatchesNewInstance(t *testing.T) {
	space := env.CCSpace(env.RL3)
	cfgRng := rand.New(rand.NewSource(5))
	shared := &trace.Trace{Name: "shared", Timestamps: []float64{0, 30}, Bandwidth: []float64{3, 3}}
	rngA := rand.New(rand.NewSource(77))
	rngB := rand.New(rand.NewSource(77))
	var reused *Instance
	for ep := 0; ep < 8; ep++ {
		cfg := space.Sample(cfgRng)
		var tr *trace.Trace
		if ep == 2 || ep == 3 || ep == 6 {
			tr = shared
		}
		fresh, err := NewInstance(cfg, tr, rngA)
		if err != nil {
			t.Fatal(err)
		}
		reused, err = regenInstance(cfg, tr, rngB, reused)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Link != fresh.Link || reused.Duration != fresh.Duration {
			t.Fatalf("ep %d: link/duration %+v/%v vs %+v/%v",
				ep, reused.Link, reused.Duration, fresh.Link, fresh.Duration)
		}
		if tr != nil {
			if reused.Trace != shared {
				t.Fatalf("ep %d: trace-driven episode did not alias the shared trace", ep)
			}
			continue
		}
		if len(reused.Trace.Timestamps) != len(fresh.Trace.Timestamps) ||
			len(reused.Trace.Bandwidth) != len(fresh.Trace.Bandwidth) {
			t.Fatalf("ep %d: trace lengths diverge", ep)
		}
		for i := range fresh.Trace.Timestamps {
			if math.Float64bits(reused.Trace.Timestamps[i]) != math.Float64bits(fresh.Trace.Timestamps[i]) ||
				math.Float64bits(reused.Trace.Bandwidth[i]) != math.Float64bits(fresh.Trace.Bandwidth[i]) {
				t.Fatalf("ep %d: trace sample %d diverges", ep, i)
			}
		}
		if math.Float64bits(reused.Trace.Mean()) != math.Float64bits(fresh.Trace.Mean()) {
			t.Fatalf("ep %d: trace mean %v vs %v", ep, reused.Trace.Mean(), fresh.Trace.Mean())
		}
	}
}
