package lb

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
)

// ObsSize is the RL observation length: job size, inter-arrival time, and
// per-server queued work and request counts.
const ObsSize = 2 + 2*NumServers

// AppendObsVector appends the ObsSize-element encoding of obs for the
// policy network to v and returns the extended slice; hot-path callers
// pass a reused or stack buffer at [:0]. Queued work is normalized against
// the workload's mean job size on a log scale so the encoding keeps
// resolution from idle queues up to deep overload, and stays scale free
// across the Table 5 job-size range.
func AppendObsVector(v []float64, obs *Observation) []float64 {
	ref := obs.MeanJobBytes
	if ref <= 0 {
		ref = 1
	}
	v = append(v, squash(obs.JobSizeBytes, 2*ref))
	v = append(v, squash(obs.IntervalMs, 1))
	logCap := math.Log1p(1000.0)
	for _, w := range obs.QueuedWork {
		v = append(v, math.Min(1, math.Log1p(w/ref)/logCap))
	}
	for _, q := range obs.QueuedRequests {
		v = append(v, squash(float64(q), 8))
	}
	return v
}

// Fallback is the rule-based routing decision a policy server answers with
// when its learned model is quarantined: the least-loaded server of one
// ObsSize observation (first index wins ties). The encoded queued-work
// features (indices 2 .. 2+NumServers) are a monotone transform of raw
// queued bytes that saturates at 1, so this agrees with LLF except among
// servers past saturation, where the first index wins.
func Fallback(obs []float64) int {
	best, bestv := 0, obs[2]
	for i := 1; i < NumServers; i++ {
		if v := obs[2+i]; v < bestv {
			best, bestv = i, v
		}
	}
	return best
}

func squash(x, c float64) float64 {
	if x < 0 {
		x = 0
	}
	return x / (x + c)
}

// EnvGen produces a fresh LB environment per episode.
type EnvGen func(rng *rand.Rand) *Env

// GenFromConfig returns a generator materializing environments of a fixed
// Table 5 configuration.
func GenFromConfig(cfg env.Config) EnvGen {
	return func(rng *rand.Rand) *Env {
		e, err := NewEnvFromConfig(cfg, rng)
		if err != nil {
			panic(fmt.Sprintf("lb: config env: %v", err))
		}
		return e
	}
}

// GenFromDistribution returns a generator that samples a configuration from
// dist per episode.
func GenFromDistribution(dist *env.Distribution) EnvGen {
	return func(rng *rand.Rand) *Env {
		e, err := NewEnvFromConfig(dist.Sample(rng), rng)
		if err != nil {
			panic(fmt.Sprintf("lb: distribution env: %v", err))
		}
		return e
	}
}

// slowdownRewardCap bounds the per-job penalty so one pathological queue
// cannot dominate a gradient update.
const slowdownRewardCap = 50

// NewRLEnv returns the scalar training environment over gen: a width-1
// VecEnv seen through rl's slot view, so scalar and vectorized training
// share one copy of the dynamics. One step per arriving job, action =
// observed server index, reward = −slowdown (capped).
func NewRLEnv(gen EnvGen) *rl.DiscreteSlot {
	return rl.NewDiscreteSlot(NewVecEnv(gen, 1))
}

// AgentPolicy adapts a trained rl.DiscreteAgent into an lb.Policy for
// head-to-head evaluation (greedy action selection).
type AgentPolicy struct {
	Agent *rl.DiscreteAgent
	Label string
}

// Name implements Policy.
func (p *AgentPolicy) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "RL"
}

// Reset implements Policy.
func (*AgentPolicy) Reset() {}

// Select implements Policy.
func (p *AgentPolicy) Select(obs *Observation) int {
	var buf [ObsSize]float64
	return p.Agent.Greedy(AppendObsVector(buf[:0], obs))
}
