package rl

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
)

// GaussianConfig configures a GaussianAgent (PPO over a diagonal Gaussian
// policy, the Aurora congestion-control setup).
type GaussianConfig struct {
	ObsSize   int
	ActionDim int
	Hidden    []int
	LR        float64
	Gamma     float64
	Lambda    float64
	Entropy   float64
	ClipEps   float64 // PPO clipping epsilon
	Epochs    int     // PPO epochs per update
	Minibatch int     // minibatch size (0 = full batch)
	ClipNorm  float64
	InitStd   float64 // initial action standard deviation
	MinStd    float64 // floor on the learned std
}

// DefaultGaussianConfig returns the PPO hyperparameters used in the CC
// experiments.
func DefaultGaussianConfig(obsSize, actionDim int) GaussianConfig {
	return GaussianConfig{
		ObsSize:   obsSize,
		ActionDim: actionDim,
		Hidden:    []int{32, 16},
		LR:        3e-3,
		Gamma:     0.99,
		Lambda:    0.95,
		Entropy:   1e-3,
		ClipEps:   0.2,
		Epochs:    4,
		Minibatch: 64,
		ClipNorm:  5,
		InitStd:   1.0,
		MinStd:    0.15,
	}
}

// GaussianAgent is a PPO learner with a state-independent diagonal
// covariance — the Gaussian head over the shared core: the policy network
// outputs the action mean; log standard deviations are free parameters
// trained alongside it by their own Adam.
type GaussianAgent struct {
	agent[[]float64]
	cfg    GaussianConfig
	logStd []float64
	sOpt   *adamVec
	sGrads []float64
	stdBuf []float64    // std snapshot of the minibatch in flight
	extra  [2]metrics.F // PPO's rl/update fields, filled by finish
}

// NewGaussianAgent builds an agent with freshly initialized networks.
func NewGaussianAgent(cfg GaussianConfig, rng *rand.Rand) (*GaussianAgent, error) {
	if cfg.ObsSize <= 0 || cfg.ActionDim <= 0 {
		return nil, fmt.Errorf("rl: invalid gaussian agent dims obs=%d act=%d", cfg.ObsSize, cfg.ActionDim)
	}
	policy, value, err := newNets(rng, cfg.ObsSize, cfg.Hidden, cfg.ActionDim)
	if err != nil {
		return nil, err
	}
	logStd := make([]float64, cfg.ActionDim)
	for i := range logStd {
		logStd[i] = math.Log(math.Max(cfg.InitStd, 1e-3))
	}
	return newGaussian(cfg, policy, value, logStd), nil
}

func newGaussian(cfg GaussianConfig, policy, value *nn.MLP, logStd []float64) *GaussianAgent {
	a := &GaussianAgent{
		cfg: cfg, logStd: logStd,
		sOpt:   newAdamVec(cfg.LR, cfg.ActionDim),
		sGrads: make([]float64, cfg.ActionDim),
		stdBuf: make([]float64, cfg.ActionDim),
	}
	a.init(a, learner{lr: cfg.LR, gamma: cfg.Gamma, lambda: cfg.Lambda, clipNorm: cfg.ClipNorm, valueCoef: 1, minibatch: cfg.Minibatch, epochs: cfg.Epochs}, policy, value)
	return a
}

// Config returns the agent's configuration.
func (a *GaussianAgent) Config() GaussianConfig { return a.cfg }

// Mean returns the deterministic policy output at obs (evaluation mode).
func (a *GaussianAgent) Mean(obs []float64) []float64 {
	return a.policy.Forward(obs)
}

// MeanInto is Mean writing into dst (len must equal the action dimension)
// without allocating. It returns dst.
func (a *GaussianAgent) MeanInto(dst, obs []float64) []float64 {
	a.policy.ForwardInto(dst, obs)
	return dst
}

// Std returns the current per-dimension action standard deviations.
func (a *GaussianAgent) Std() []float64 {
	return a.stdInto(make([]float64, len(a.logStd)))
}

// stdInto writes the per-dimension standard deviations into dst.
func (a *GaussianAgent) stdInto(dst []float64) []float64 {
	for i, ls := range a.logStd {
		dst[i] = math.Max(math.Exp(ls), a.cfg.MinStd)
	}
	return dst
}

func (a *GaussianAgent) logProb(mean, std, action []float64) float64 {
	lp := 0.0
	for i := range mean {
		z := (action[i] - mean[i]) / std[i]
		lp += -0.5*z*z - math.Log(std[i]) - 0.5*math.Log(2*math.Pi)
	}
	return lp
}

// gaussianEntropy returns the differential entropy of a diagonal Gaussian.
func gaussianEntropy(std []float64) float64 {
	h := 0.0
	for _, s := range std {
		h += 0.5*math.Log(2*math.Pi*math.E) + math.Log(s)
	}
	return h
}

// sample implements policyHead: draw from N(mean, diag(std^2)), with std
// computed into the workspace and the action carved from the rollout arena.
func (a *GaussianAgent) sample(mean, std []float64, rng *rand.Rand, ar *floatArena) ([]float64, Transition) {
	a.stdInto(std)
	action := ar.clone(mean)
	for i := range action {
		action[i] = mean[i] + std[i]*rng.NormFloat64()
	}
	return action, Transition{ActionC: action, LogProb: a.logProb(mean, std, action)}
}

// Update performs a PPO update: Epochs passes of clipped-surrogate
// minibatch gradient steps over the batch, each pass over a fresh shuffle
// drawn from rng. Every shuffle is drawn up front; then the core's two
// lanes take the steps, each gathering a minibatch's observations into a
// contiguous [mb x ObsSize] matrix for its sharded gradient pass (see
// update).
func (a *GaussianAgent) Update(batch *Batch, rng *rand.Rand) UpdateStats {
	return a.update(batch, rng)
}

// startStep implements policyHead: snapshot the std the step's shards read
// and zero the log-std gradient they fold into.
func (a *GaussianAgent) startStep() []float64 {
	a.stdInto(a.stdBuf)
	clear(a.sGrads)
	return a.sGrads
}

// stepExtra implements policyHead: step the log-std and keep the std in a
// sane band.
func (a *GaussianAgent) stepExtra() {
	a.sOpt.step(a.logStd, a.sGrads)
	for k := range a.logStd {
		a.logStd[k] = min(max(a.logStd[k], math.Log(a.cfg.MinStd)), math.Log(2.0))
	}
}

// health implements policyHead: the entropy of the step's std snapshot and
// the finiteness of its log-std gradient.
func (a *GaussianAgent) health(*lane) (float64, bool) {
	return gaussianEntropy(a.stdBuf), allFinite(a.sGrads)
}

// finish implements policyHead: add the entropy of the std the update ends
// with, and report PPO's approx_kl and clip_frac.
func (a *GaussianAgent) finish(s UpdateStats) (UpdateStats, []metrics.F) {
	s.Entropy += gaussianEntropy(a.stdInto(a.stdBuf))
	a.extra = [2]metrics.F{{K: "approx_kl", V: s.KL}, {K: "clip_frac", V: s.ClipFrac}}
	return s, a.extra[:]
}

// shardGrads implements policyHead: the clipped-surrogate gradient of
// minibatch rows [start,end) of pass p, whose std snapshot is stdBuf. The
// log-std gradient accumulates into sh.aux.
func (a *GaussianAgent) shardGrads(sh *policyShard, p *shardPass, start, end int) {
	d := a.cfg.ObsSize
	k := a.cfg.ActionDim
	b := end - start
	bn := float64(p.n)
	x := p.obs[start*d : end*d]
	std := a.stdBuf

	means := a.policy.ForwardBatchCache(sh.s, x, b)
	for r := 0; r < b; r++ {
		i := p.rows[start+r]
		t := &p.batch.Transitions[i]
		mean := means[r*k : (r+1)*k]
		logp := a.logProb(mean, std, t.ActionC)
		ratio := math.Exp(logp - t.LogProb)
		sh.stats.KL += (t.LogProb - logp) / bn

		// Clipped surrogate: L = min(r*A, clip(r)*A); gradient flows
		// through r only when unclipped (or when clipping is inactive
		// for this sign of A).
		clipped := ratio < 1-a.cfg.ClipEps || ratio > 1+a.cfg.ClipEps
		if clipped {
			sh.stats.ClipFrac += 1 / bn
		}
		active := !clipped || (p.adv[i] > 0 && ratio < 1) || (p.adv[i] < 0 && ratio > 1)
		surr := math.Min(ratio*p.adv[i], min(max(ratio, 1-a.cfg.ClipEps), 1+a.cfg.ClipEps)*p.adv[i])
		sh.stats.PolicyLoss += -surr / bn

		gm := sh.gOut[r*k : (r+1)*k]
		if active {
			// dL/dmean_j = -A * r * (a_j - mean_j)/std_j^2
			for j := range gm {
				z := (t.ActionC[j] - mean[j]) / (std[j] * std[j])
				gm[j] = -p.adv[i] * ratio * z / bn
				// dlogp/dlogstd = z^2 - 1 (with z=(a-mu)/std);
				// entropy bonus gradient dH/dlogstd = 1.
				zz := (t.ActionC[j] - mean[j]) / std[j]
				sh.aux[j] += (-p.adv[i]*ratio*(zz*zz-1) - a.cfg.Entropy) / bn
			}
		} else {
			// Clipped-out samples contribute exact zeros through the
			// batched backward (a zero gradOut row is a no-op).
			clear(gm)
		}
	}
	a.policy.BackwardBatchParams(sh.s, sh.gOut[:b*k], sh.grads)
}

// Clone returns an independent copy of the agent with fresh optimizer state.
func (a *GaussianAgent) Clone() *GaussianAgent {
	return newGaussian(a.cfg, a.policy.Clone(), a.value.Clone(), append([]float64(nil), a.logStd...))
}

// adamVec is Adam over a plain float64 vector (the log-std parameters). It
// shares its layout with adamVecWire, its serialized form.
type adamVec adamVecWire

func newAdamVec(lr float64, n int) *adamVec {
	return &adamVec{LR: lr, B1: 0.9, B2: 0.999, Eps: 1e-8, M: make([]float64, n), V: make([]float64, n)}
}

func (a *adamVec) step(params, grad []float64) {
	a.T++
	nn.AdamUpdate(params, grad, a.M, a.V, a.LR, a.B1, a.B2, a.Eps, a.T)
}

// allFinite reports whether every entry of xs is a finite number (the
// log-std gradient scan in the Gaussian agent's pre-apply check).
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
