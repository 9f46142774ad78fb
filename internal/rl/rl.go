// Package rl implements the policy-gradient reinforcement-learning substrate
// used by the Genet reproduction: Gym-style environment interfaces, an
// advantage actor-critic learner with generalized advantage estimation for
// discrete action spaces (the A3C family used by Pensieve-style ABR and the
// Park load balancer), and PPO with a clipped surrogate objective for
// continuous action spaces (the algorithm used by Aurora-style congestion
// control).
//
// Both learners are one rollout/training core (agent.go, lanes.go),
// generic over the action type: networks, optimizers, Runtime attachments,
// pools, the one collect loop (the lockstep engine, which Collect runs at
// width 1 and TrainIterationVec runs over a vectorized env, guard and
// faults armed or not), TrainIterationVec, and the one update driver: an
// update is a number of optimizer steps, each run as a policy lane and a
// value lane with one guard verdict and one veto rule. A scalar
// environment is a slot view of a vectorized one (DiscreteSlot,
// ContinuousSlot). Each learner is a small policy head on it: the
// categorical DiscreteAgent, whose A2C update is one step replaying the
// rollout's activations, and the diagonal-Gaussian GaussianAgent, whose
// PPO update is epochs of shuffled minibatch steps with a log-std Adam.
//
// Everything is deterministic given the caller-provided random sources.
package rl

import (
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/nn"
)

// DiscreteEnv is a sequential decision environment with a finite action set.
// Implementations must be deterministic given the rand.Rand passed to Reset.
type DiscreteEnv interface {
	// ObsSize returns the observation vector length.
	ObsSize() int
	// NumActions returns the number of discrete actions.
	NumActions() int
	// Reset starts a new episode and returns the initial observation.
	// All of the episode's randomness must flow from rng.
	Reset(rng *rand.Rand) []float64
	// Step applies an action, returning the next observation, the reward
	// for the transition, and whether the episode ended.
	Step(action int) (obs []float64, reward float64, done bool)
	// The observation slice Reset or Step returns lives until the next
	// Reset or Step: an env may rewrite it in place, so callers that keep
	// an observation copy it.
}

// ContinuousEnv is a sequential decision environment with a real-valued
// action vector.
type ContinuousEnv interface {
	// ObsSize returns the observation vector length.
	ObsSize() int
	// ActionDim returns the action vector length.
	ActionDim() int
	// Reset starts a new episode and returns the initial observation.
	Reset(rng *rand.Rand) []float64
	// Step applies an action vector.
	Step(action []float64) (obs []float64, reward float64, done bool)
	// As for DiscreteEnv, the returned observation slice lives until the
	// next Reset or Step.
}

// Transition is one (s, a, r) step of a rollout with the bookkeeping the
// learners need.
type Transition struct {
	Obs      []float64
	Action   int       // discrete action (DiscreteEnv rollouts)
	ActionC  []float64 // continuous action (ContinuousEnv rollouts)
	LogProb  float64   // log π(a|s) under the behaviour policy
	Reward   float64
	Value    float64 // V(s) estimate at collection time
	Done     bool    // episode terminated after this step
	LastVal  float64 // V(s') bootstrap when an episode is truncated mid-flight
	Truncate bool    // step ended because of the step budget, not termination
}

// Batch is a set of transitions from one or more episodes, in order.
type Batch struct {
	Transitions []Transition
	Episodes    int
	TotalReward float64 // summed over all episodes

	// Rollout activation caches recorded by the collect loops. A2C is
	// on-policy: parameters are frozen between collection and update, so
	// the activations the rollout already computed are exactly the ones the
	// update's backward pass needs. An update replays them only when the
	// batch was recorded through its own policy network at the current
	// parameter version (cacheOwner/cacheVersion guard), falling back to
	// recomputing forwards otherwise — e.g. for hand-built batches or a
	// second Update on the same batch.
	pCache, vCache *nn.BatchCache
	cacheOwner     *nn.MLP
	cacheVersion   uint64
}

// MeanEpisodeReward returns TotalReward averaged over episodes (0 when no
// episodes completed).
func (b *Batch) MeanEpisodeReward() float64 {
	if b.Episodes == 0 {
		return 0
	}
	return b.TotalReward / float64(b.Episodes)
}

// GAE computes generalized advantage estimates and discounted returns for a
// batch in place order. The batch must contain complete episode segments in
// order; Done/Truncate mark boundaries.
func GAE(batch *Batch, gamma, lambda float64) (advantages, returns []float64) {
	n := len(batch.Transitions)
	return gaeInto(make([]float64, n), make([]float64, n), batch, gamma, lambda)
}

// gaeInto is GAE over caller-owned buffers (len == len(batch.Transitions)),
// the allocation-free path the per-iteration update uses.
func gaeInto(advantages, returns []float64, batch *Batch, gamma, lambda float64) ([]float64, []float64) {
	n := len(batch.Transitions)
	var nextAdv, nextValue float64
	for i := n - 1; i >= 0; i-- {
		t := &batch.Transitions[i]
		switch {
		case t.Done:
			nextValue = 0
			nextAdv = 0
		case t.Truncate:
			nextValue = t.LastVal
			nextAdv = 0
		}
		delta := t.Reward + gamma*nextValue - t.Value
		nextAdv = delta + gamma*lambda*nextAdv
		advantages[i] = nextAdv
		returns[i] = advantages[i] + t.Value
		nextValue = t.Value
	}
	return advantages, returns
}

// NormalizeAdvantages standardizes advantages to zero mean, unit variance
// (a standard variance-reduction step). It is a no-op for tiny batches.
func NormalizeAdvantages(adv []float64) {
	if len(adv) < 2 {
		return
	}
	mean := 0.0
	for _, a := range adv {
		mean += a
	}
	mean /= float64(len(adv))
	variance := 0.0
	for _, a := range adv {
		d := a - mean
		variance += d * d
	}
	variance /= float64(len(adv))
	std := math.Sqrt(variance)
	if std < 1e-8 {
		return
	}
	for i := range adv {
		adv[i] = (adv[i] - mean) / std
	}
}

// UpdateStats reports diagnostics from one learner update.
type UpdateStats struct {
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	GradNorm   float64
	KL         float64 // approximate KL(old || new), PPO only
	ClipFrac   float64 // fraction of samples with a clipped ratio, PPO only
	// Skipped reports that the training guard vetoed at least one
	// optimizer apply for this update (poisoned gradients, divergence,
	// or entropy collapse); the parameters kept their pre-update values
	// for the skipped step(s).
	Skipped bool
}

// categoricalSample draws an index from the probability vector probs.
func categoricalSample(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	cum := 0.0
	for i, p := range probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(probs) - 1
}

// entropy returns the Shannon entropy of a probability vector (nats).
func entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}
