package abr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

// Equivalence contract of the native vectorized environment: CollectVec over
// NewVecEnv(GenFromX(...), k) is bit-identical per slot to sequential
// Collect over NewRLEnv(GenFromX(...)) with the same seed, and slot state
// regenerated in place leaks nothing across episodes or collects. These
// tests pin that for both the fixed-config and the distribution
// (trace-augmented) generators; TestRegenInstanceMatchesNewInstance pins
// that reuse never changes what a generator draws.

func sameBatches(t *testing.T, tag string, seq, vec *rl.Batch) {
	t.Helper()
	if seq.Episodes != vec.Episodes || seq.TotalReward != vec.TotalReward {
		t.Fatalf("%s: header diverges: %d/%v vs %d/%v",
			tag, seq.Episodes, seq.TotalReward, vec.Episodes, vec.TotalReward)
	}
	if len(seq.Transitions) != len(vec.Transitions) {
		t.Fatalf("%s: %d sequential vs %d vectorized transitions",
			tag, len(seq.Transitions), len(vec.Transitions))
	}
	for j := range seq.Transitions {
		s, v := seq.Transitions[j], vec.Transitions[j]
		if len(s.Obs) != len(v.Obs) {
			t.Fatalf("%s step %d: obs lengths diverge", tag, j)
		}
		for d := range s.Obs {
			if math.Float64bits(s.Obs[d]) != math.Float64bits(v.Obs[d]) {
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

func vecEquivCheck(t *testing.T, tag string, gen InstanceGen, width, perSlot int) {
	t.Helper()
	agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(ObsSize, len(DefaultBitratesKbps)), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, width)
	for i := range seeds {
		seeds[i] = int64(4000 + 13*i)
	}
	seq := make([]*rl.Batch, width)
	for i := range seq {
		seq[i] = agent.Collect(NewRLEnv(gen), perSlot, rand.New(rand.NewSource(seeds[i])))
	}
	vec := agent.CollectVec(NewVecEnv(gen, width), perSlot, seeds)
	for i := range seq {
		sameBatches(t, tag, seq[i], vec[i])
	}
	// Re-collect on the same env: slot state regeneration must not leak
	// anything across episodes or collects.
	venv := NewVecEnv(gen, width)
	_ = agent.CollectVec(venv, perSlot, seeds)
	vec2 := agent.CollectVec(venv, perSlot, seeds)
	for i := range seq {
		sameBatches(t, tag+"/reused", seq[i], vec2[i])
	}
}

func TestVecEnvMatchesRLEnvConfig(t *testing.T) {
	cfg := defaultCfg()
	for _, width := range []int{1, 2, 5} {
		vecEquivCheck(t, "config", GenFromConfig(cfg), width, 120)
	}
}

func TestVecEnvMatchesRLEnvDistribution(t *testing.T) {
	space := env.ABRSpace(env.RL3)
	dist := env.NewDistribution(space)
	set := &trace.Set{Name: "s", Traces: []*trace.Trace{constTrace(3, 300), constTrace(4, 300)}}
	// traceProb 0.5 exercises both the shared-trace aliasing path and the
	// synthetic-scratch reuse path, interleaved within one slot's episodes.
	gen := GenFromDistribution(dist, set, 0.5)
	for _, width := range []int{1, 3} {
		vecEquivCheck(t, "distribution", gen, width, 120)
	}
}

// TestRegenInstanceMatchesNewInstance pins the generators' rng contract
// directly: regenerating into a dirty instance produces the same video,
// trace, and sim config as a fresh NewInstance with an identically-seeded
// rng — including after a trace-driven episode parked the synthetic scratch.
func TestRegenInstanceMatchesNewInstance(t *testing.T) {
	cfg := defaultCfg()
	shared := constTrace(3, 300)
	rngA := rand.New(rand.NewSource(77))
	rngB := rand.New(rand.NewSource(77))
	var reused *Instance
	for ep := 0; ep < 6; ep++ {
		var tr *trace.Trace
		if ep == 2 || ep == 3 {
			tr = shared // trace-driven episodes in the middle
		}
		fresh, err := NewInstance(cfg, tr, rngA)
		if err != nil {
			t.Fatal(err)
		}
		reused, err = regenInstance(cfg, tr, rngB, reused)
		if err != nil {
			t.Fatal(err)
		}
		if reused.SimCfg != fresh.SimCfg {
			t.Fatalf("ep %d: sim cfg %+v vs %+v", ep, reused.SimCfg, fresh.SimCfg)
		}
		for l := range fresh.Video.Sizes {
			for c := range fresh.Video.Sizes[l] {
				if reused.Video.Sizes[l][c] != fresh.Video.Sizes[l][c] {
					t.Fatalf("ep %d: video sizes diverge at [%d][%d]", ep, l, c)
				}
			}
		}
		if tr != nil {
			if reused.Trace != shared {
				t.Fatalf("ep %d: trace-driven episode did not alias the shared trace", ep)
			}
			continue
		}
		if len(reused.Trace.Timestamps) != len(fresh.Trace.Timestamps) {
			t.Fatalf("ep %d: trace lengths diverge", ep)
		}
		for i := range fresh.Trace.Timestamps {
			if reused.Trace.Timestamps[i] != fresh.Trace.Timestamps[i] ||
				reused.Trace.Bandwidth[i] != fresh.Trace.Bandwidth[i] {
				t.Fatalf("ep %d: trace sample %d diverges", ep, i)
			}
		}
	}
}
