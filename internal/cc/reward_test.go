package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/genet-go/genet/internal/env"
)

func TestRewardScaleFloor(t *testing.T) {
	if got := RewardScale(0.01); got != 60 {
		t.Fatalf("scale(0.01) = %v, want floor 60", got)
	}
	if got := RewardScale(10); got != 1200 {
		t.Fatalf("scale(10) = %v, want 1200", got)
	}
}

func TestTrainRewardNormalization(t *testing.T) {
	// Full utilization of any link normalizes to ~1.
	for _, bw := range []float64{1, 10, 100} {
		scale := RewardScale(bw)
		raw := RewardThroughputCoef * bw // perfect throughput, no penalties
		if got := TrainReward(raw, scale); math.Abs(got-1) > 0.01 {
			t.Fatalf("bw=%v: normalized full utilization = %v, want ~1", bw, got)
		}
	}
}

func TestTrainRewardClipped(t *testing.T) {
	if got := TrainReward(-1e9, 60); got != -5 {
		t.Fatalf("clip low = %v", got)
	}
	if got := TrainReward(1e9, 60); got != 2 {
		t.Fatalf("clip high = %v", got)
	}
}

func TestTrainRewardMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		a, b = math.Mod(a, 1e4), math.Mod(b, 1e4)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return TrainReward(lo, 100) <= TrainReward(hi, 100)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateFeatureMonotoneBounded(t *testing.T) {
	last := -1.0
	for _, r := range []float64{0.01, 0.1, 1, 10, 100, 2000} {
		f := rateFeature(r)
		if f < 0 || f > 1 {
			t.Fatalf("rateFeature(%v) = %v", r, f)
		}
		if f < last {
			t.Fatalf("rateFeature not monotone at %v", r)
		}
		last = f
	}
	if rateFeature(0.01) != 0 || math.Abs(rateFeature(2000)-1) > 1e-12 {
		t.Fatal("rateFeature endpoints wrong")
	}
}

func TestObsIncludesRateFeature(t *testing.T) {
	e := NewRLEnv(GenFromConfig(env.CCSpace(env.RL3).Default(env.CCDefaults())))
	obs := e.Reset(rand.New(rand.NewSource(1)))
	if len(obs) != ObsSize {
		t.Fatalf("obs len = %d, want %d", len(obs), ObsSize)
	}
	// The last element is the rate feature, which must move when the
	// rate does.
	before := obs[len(obs)-1]
	for i := 0; i < 8; i++ {
		obs, _, _ = e.Step([]float64{1.5}) // max increase
	}
	after := obs[len(obs)-1]
	if after <= before {
		t.Fatalf("rate feature did not increase: %v -> %v", before, after)
	}
}

func TestTrainingInitialRateRandomized(t *testing.T) {
	v := NewVecEnv(GenFromConfig(env.CCSpace(env.RL3).Default(env.CCDefaults())), 1)
	obs := make([]float64, ObsSize)
	seen := map[float64]bool{}
	for i := 0; i < 8; i++ {
		v.ResetSlot(0, rand.New(rand.NewSource(int64(i))), obs)
		rate := v.slots[0].enc.rate
		seen[rate] = true
		if rate < 0.05 {
			t.Fatalf("initial rate %v below trickle floor", rate)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("initial rates not randomized: %v", seen)
	}
}
