package rl

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
)

// DiscreteConfig configures a DiscreteAgent.
type DiscreteConfig struct {
	ObsSize    int
	NumActions int
	Hidden     []int   // hidden layer widths, e.g. {64, 32}
	LR         float64 // Adam learning rate
	Gamma      float64 // discount
	Lambda     float64 // GAE lambda
	Entropy    float64 // entropy bonus coefficient
	ValueCoef  float64 // value loss coefficient
	ClipNorm   float64 // global gradient clip (0 disables)
}

// DefaultDiscreteConfig returns the hyperparameters used across the ABR and
// LB experiments. Per §4.1, hyperparameters are held fixed in all runs; only
// the environment curriculum varies.
func DefaultDiscreteConfig(obsSize, numActions int) DiscreteConfig {
	return DiscreteConfig{
		ObsSize:    obsSize,
		NumActions: numActions,
		Hidden:     []int{64, 32},
		LR:         5e-3,
		Gamma:      0.99,
		Lambda:     0.95,
		Entropy:    0.1,
		ValueCoef:  0.5,
		ClipNorm:   5,
	}
}

// DiscreteAgent is an advantage actor-critic (A2C/A3C-style) learner over a
// categorical policy, the algorithm family Pensieve and Park use: the
// categorical head over the shared core.
type DiscreteAgent struct {
	agent[int]
	cfg DiscreteConfig
}

// NewDiscreteAgent builds an agent with freshly initialized networks drawn
// from rng.
func NewDiscreteAgent(cfg DiscreteConfig, rng *rand.Rand) (*DiscreteAgent, error) {
	if cfg.ObsSize <= 0 || cfg.NumActions <= 1 {
		return nil, fmt.Errorf("rl: invalid discrete agent dims obs=%d actions=%d", cfg.ObsSize, cfg.NumActions)
	}
	policy, value, err := newNets(rng, cfg.ObsSize, cfg.Hidden, cfg.NumActions)
	if err != nil {
		return nil, err
	}
	return newDiscrete(cfg, policy, value), nil
}

func newDiscrete(cfg DiscreteConfig, policy, value *nn.MLP) *DiscreteAgent {
	a := &DiscreteAgent{cfg: cfg}
	a.init(a, learner{lr: cfg.LR, gamma: cfg.Gamma, lambda: cfg.Lambda, clipNorm: cfg.ClipNorm, valueCoef: cfg.ValueCoef, replay: true}, policy, value)
	return a
}

// Config returns the agent's configuration.
func (a *DiscreteAgent) Config() DiscreteConfig { return a.cfg }

// maxStackActions bounds the action count whose logits Greedy keeps on
// the stack; every use case in the repository has at most 10 actions.
const maxStackActions = 16

// Greedy returns the argmax action (deterministic evaluation mode). It
// makes no heap allocation for up to maxStackActions actions, and is safe
// for concurrent callers sharing the agent while it is not trained.
func (a *DiscreteAgent) Greedy(obs []float64) int {
	var buf [maxStackActions]float64
	n := a.policy.OutSize()
	logits := buf[:]
	if n > len(buf) {
		logits = make([]float64, n)
	}
	logits = logits[:n]
	a.policy.ForwardInto(logits, obs)
	return argmaxF(logits)
}

func argmaxF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// sample implements policyHead: softmax the logits into probs and draw.
func (a *DiscreteAgent) sample(logits, probs []float64, rng *rand.Rand, _ *floatArena) (int, Transition) {
	nn.SoftmaxInto(probs, logits)
	action := categoricalSample(probs, rng)
	return action, Transition{Action: action, LogProb: math.Log(math.Max(probs[action], 1e-12))}
}

// Update performs one actor-critic gradient step on the batch: policy
// gradient with GAE advantages and entropy bonus, plus an MSE critic update.
// It is the one-step case of the core's two-lane update (see update).
//
// A2C is on-policy: parameters are frozen between collection and update, so
// when the batch carries this agent's rollout activations at its current
// parameter version the update replays them and runs no forward at all.
// Other batches (hand-built ones, a second Update on one batch) first run
// both networks over their observations into the agent's merged caches —
// the same rows collection would have recorded, bit for bit.
func (a *DiscreteAgent) Update(batch *Batch) UpdateStats { return a.update(batch, nil) }

// startStep, stepExtra, health and finish implement policyHead: the
// categorical head has no parameters of its own, hands the guard the
// step's mean per-row entropy, and adds nothing to the update's stats or
// telemetry.
func (a *DiscreteAgent) startStep() []float64 { return nil }
func (a *DiscreteAgent) stepExtra()           {}
func (a *DiscreteAgent) health(pl *lane) (float64, bool) {
	return pl.stats.Entropy - pl.mark.Entropy, true
}
func (a *DiscreteAgent) finish(s UpdateStats) (UpdateStats, []metrics.F) { return s, nil }

// shardGrads implements policyHead: the A2C policy loss gradient of rows
// [start,end) of pass p, replayed from its activation caches.
func (a *DiscreteAgent) shardGrads(sh *policyShard, p *shardPass, start, end int) {
	na := a.cfg.NumActions
	b := end - start
	n := float64(p.n)

	// Loss_i = -adv*logπ(a|s) - entropyCoef*H(π(.|s)).
	logits := p.pc.Output()[start*na : end*na]
	probs := sh.aux
	for r := 0; r < b; r++ {
		i := start + r
		t := &p.batch.Transitions[i]
		nn.SoftmaxInto(probs, logits[r*na:(r+1)*na])
		h := entropy(probs)
		sh.stats.Entropy += h / n
		sh.stats.PolicyLoss += -p.adv[i] * math.Log(math.Max(probs[t.Action], 1e-12)) / n

		// d(-adv*logπ)/dlogits = adv*(probs - onehot)
		// dH/dlogits = -probs*(logp + H)   =>  d(-cH)/dlogits = probs*(logp+H)*c
		grad := sh.gOut[r*na : (r+1)*na]
		for j := range grad {
			g := p.adv[i] * probs[j]
			if j == t.Action {
				g -= p.adv[i]
			}
			logp := math.Log(math.Max(probs[j], 1e-12))
			g += a.cfg.Entropy * probs[j] * (logp + h)
			grad[j] = g / n
		}
	}
	a.policy.BackwardBatchRows(p.pc, start, end, sh.gOut[:b*na], sh.s, sh.grads)
}

// Clone returns an independent copy of the agent (networks and optimizer
// state reset; cloning is used to snapshot models, which then continue
// training with fresh optimizer moments, matching checkpoint-restore
// semantics).
func (a *DiscreteAgent) Clone() *DiscreteAgent {
	return newDiscrete(a.cfg, a.policy.Clone(), a.value.Clone())
}
