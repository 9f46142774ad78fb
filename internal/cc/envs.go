package cc

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

// EpisodeDuration is the connection length in seconds; the paper trains
// Aurora on "30-50 30-second network environments" per iteration.
const EpisodeDuration = 30.0

// Instance is one concrete CC environment: a bandwidth trace plus link
// parameters, materialized from an environment configuration. Replays are
// deterministic up to the rng passed at simulation time (loss and delay
// noise draws).
type Instance struct {
	Trace *trace.Trace
	Link  LinkParams
	// Duration of a connection in seconds.
	Duration float64

	// synth is the reusable synthetic-trace scratch for in-place
	// regeneration (InstanceInto); see the abr package for the aliasing
	// rationale.
	synth *trace.Trace
}

// NewInstance materializes a CC environment from cfg. When tr is nil a
// synthetic trace is generated per §A.2; otherwise tr drives the bandwidth.
func NewInstance(cfg env.Config, tr *trace.Trace, rng *rand.Rand) (*Instance, error) {
	if tr == nil {
		var err error
		tr, err = trace.GenerateCC(trace.CCGenConfig{
			MaxBW:          math.Max(cfg.Get(env.CCMaxBW), 1),
			ChangeInterval: cfg.Get(env.CCBWChangeInterval),
			Duration:       EpisodeDuration,
		}, rng)
		if err != nil {
			return nil, err
		}
	}
	return &Instance{
		Trace: tr,
		Link: LinkParams{
			OneWayDelayMs: cfg.Get(env.CCMinRTT) / 2,
			QueuePackets:  math.Max(cfg.Get(env.CCQueue), 1),
			RandomLoss:    cfg.Get(env.CCLossRate),
			DelayNoiseMs:  cfg.Get(env.CCDelayNoise),
		},
		Duration: EpisodeDuration,
	}, nil
}

// NewSim starts a fresh connection over this instance.
func (in *Instance) NewSim(rng *rand.Rand) *Sim {
	s, err := NewSim(in.Trace, in.Link, rng)
	if err != nil {
		panic(fmt.Sprintf("cc: instance invariant violated: %v", err))
	}
	return s
}

// Evaluate runs sender over the instance and returns connection metrics.
func (in *Instance) Evaluate(sender Sender, rng *rand.Rand) Metrics {
	return RunEpisode(in.NewSim(rng), sender, in.Duration, 0.5)
}

// EvaluateOracle runs the link-tracking oracle (the Strawman-3 "optimum").
func (in *Instance) EvaluateOracle(rng *rand.Rand) Metrics {
	sim := in.NewSim(rng)
	return RunEpisode(sim, NewOracle(sim), in.Duration, 0.5)
}

// HistMIs is how many past monitor intervals the RL agent observes
// (Aurora's history length).
const HistMIs = 10

// featuresPerMI is the per-MI feature count: latency inflation, send ratio,
// loss rate.
const featuresPerMI = 3

// ObsSize is the RL observation length: the MI-feature history plus one
// global feature, the sender's current normalized rate. Aurora's original
// features (latency inflation, send ratio, loss) cannot distinguish rate
// levels on an uncongested link — send ratio is ~1 and inflation ~0 at any
// rate below capacity — which at this repository's training scale locks
// policies into a send-at-minimum local optimum. Exposing the rate breaks
// that symmetry; it is information the sender trivially has.
const ObsSize = HistMIs*featuresPerMI + 1

// rateFeature maps the sending rate onto [0, 1] logarithmically over the
// clamp range [0.01, 2000] Mbps.
func rateFeature(rate float64) float64 {
	return clampF(math.Log(rate/0.01)/math.Log(2000/0.01), 0, 1)
}

// miFeatures converts MI stats into the Aurora-style observation features.
func miFeatures(s MIStats) [featuresPerMI]float64 {
	sendRatio := 1.0
	if s.Throughput > 1e-9 {
		sendRatio = s.SendRate / s.Throughput
	}
	return [featuresPerMI]float64{
		clampF(s.LatencyInflation(), 0, 10) / 10,
		clampF(sendRatio, 0, 5) / 5,
		clampF(s.LossRate, 0, 1),
	}
}

// encoder is the one observation encoder of the CC agent, shared by
// training (VecEnv) and evaluation (AgentSender): the features of the last
// HistMIs monitor intervals, oldest first, then the sending rate.
type encoder struct {
	rate float64
	hist [HistMIs][featuresPerMI]float64
}

// reset starts a connection at rate with an empty history.
func (e *encoder) reset(rate float64) {
	e.rate = rate
	e.hist = [HistMIs][featuresPerMI]float64{}
}

// push appends monitor interval s to the history, dropping the oldest.
func (e *encoder) push(s MIStats) {
	copy(e.hist[:], e.hist[1:])
	e.hist[HistMIs-1] = miFeatures(s)
}

// encode overwrites obs (length ObsSize) with the observation.
func (e *encoder) encode(obs []float64) {
	v := obs[:0]
	for _, f := range e.hist {
		v = append(v, f[0], f[1], f[2])
	}
	_ = append(v, rateFeature(e.rate))
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Fallback tuning: the loss and latency-inflation levels that trigger a
// multiplicative decrease, and the action magnitudes handed to
// ApplyRateAction (asymmetric, like AIMD: back off hard, probe gently).
const (
	fallbackLossCut    = 0.02 // >2% loss in the newest MI backs off
	fallbackLatInflCut = 0.3  // encoded latency inflation (raw/10) cut
	fallbackDecrease   = -1.0
	fallbackIncrease   = 0.1
)

// Fallback is the rule-based rate action a policy server answers with when
// its learned model is quarantined: an AIMD step over the newest monitor
// interval of one ObsSize observation. The observation is HistMIs rows of
// miFeatures ([latencyInflation/10, sendRatio/5, lossRate]) followed by the
// rate feature, so the newest row sits just before the final element.
func Fallback(obs []float64) float64 {
	latInfl := obs[len(obs)-4]
	loss := obs[len(obs)-2]
	if loss > fallbackLossCut || latInfl > fallbackLatInflCut {
		return fallbackDecrease
	}
	return fallbackIncrease
}

// InstanceGen produces a fresh environment instance per episode.
type InstanceGen func(rng *rand.Rand) *Instance

// GenFromConfig returns a generator materializing synthetic instances of a
// fixed configuration.
func GenFromConfig(cfg env.Config) InstanceGen {
	return func(rng *rand.Rand) *Instance {
		in, err := NewInstance(cfg, nil, rng)
		if err != nil {
			panic(fmt.Sprintf("cc: config instance: %v", err))
		}
		return in
	}
}

// GenFromDistribution returns a generator that samples a configuration from
// dist and, with probability traceProb, swaps in a bandwidth trace from set
// whose mean bandwidth falls within the configuration's range (§4.2).
func GenFromDistribution(dist *env.Distribution, set *trace.Set, traceProb float64) InstanceGen {
	return func(rng *rand.Rand) *Instance {
		cfg := dist.Sample(rng)
		var tr *trace.Trace
		if set != nil && set.Len() > 0 && rng.Float64() < traceProb {
			maxBW := cfg.Get(env.CCMaxBW)
			matching := set.Filter(func(f trace.Features) bool {
				return f.MeanBW <= maxBW
			})
			if matching.Len() > 0 {
				tr = matching.Sample(rng)
			} else {
				tr = set.Sample(rng)
			}
		}
		in, err := NewInstance(cfg, tr, rng)
		if err != nil {
			panic(fmt.Sprintf("cc: distribution instance: %v", err))
		}
		return in
	}
}

// InstanceInto is the reusing form of InstanceGen: it materializes a fresh
// instance per episode, writing into prev's backing arrays when prev is
// non-nil, with rng consumption identical to the corresponding InstanceGen.
type InstanceInto func(rng *rand.Rand, prev *Instance) *Instance

// regenInstance is NewInstance writing into prev.
func regenInstance(cfg env.Config, tr *trace.Trace, rng *rand.Rand, prev *Instance) (*Instance, error) {
	if prev == nil {
		prev = &Instance{}
	}
	if tr == nil {
		synth, err := trace.GenerateCCInto(prev.synth, trace.CCGenConfig{
			MaxBW:          math.Max(cfg.Get(env.CCMaxBW), 1),
			ChangeInterval: cfg.Get(env.CCBWChangeInterval),
			Duration:       EpisodeDuration,
		}, rng)
		if err != nil {
			return nil, err
		}
		prev.synth = synth
		tr = synth
	}
	prev.Trace = tr
	prev.Link = LinkParams{
		OneWayDelayMs: cfg.Get(env.CCMinRTT) / 2,
		QueuePackets:  math.Max(cfg.Get(env.CCQueue), 1),
		RandomLoss:    cfg.Get(env.CCLossRate),
		DelayNoiseMs:  cfg.Get(env.CCDelayNoise),
	}
	prev.Duration = EpisodeDuration
	return prev, nil
}

// IntoFromConfig is GenFromConfig in reusing form.
func IntoFromConfig(cfg env.Config) InstanceInto {
	return func(rng *rand.Rand, prev *Instance) *Instance {
		in, err := regenInstance(cfg, nil, rng, prev)
		if err != nil {
			panic(fmt.Sprintf("cc: config instance: %v", err))
		}
		return in
	}
}

// IntoFromDistribution is GenFromDistribution in reusing form.
func IntoFromDistribution(dist *env.Distribution, set *trace.Set, traceProb float64) InstanceInto {
	return func(rng *rand.Rand, prev *Instance) *Instance {
		cfg := dist.Sample(rng)
		var tr *trace.Trace
		if set != nil && set.Len() > 0 && rng.Float64() < traceProb {
			maxBW := cfg.Get(env.CCMaxBW)
			matching := set.Filter(func(f trace.Features) bool {
				return f.MeanBW <= maxBW
			})
			if matching.Len() > 0 {
				tr = matching.Sample(rng)
			} else {
				tr = set.Sample(rng)
			}
		}
		in, err := regenInstance(cfg, tr, rng, prev)
		if err != nil {
			panic(fmt.Sprintf("cc: distribution instance: %v", err))
		}
		return in
	}
}

// IntoFromGen adapts any InstanceGen as an InstanceInto (without reuse).
func IntoFromGen(gen InstanceGen) InstanceInto {
	return func(rng *rand.Rand, _ *Instance) *Instance { return gen(rng) }
}

// RateActionScale bounds how much one action can move the sending rate: the
// multiplicative update is 1+scale·a for a>0 and 1/(1−scale·a) for a<0,
// Aurora's asymmetric rate mapping.
const RateActionScale = 0.3

// ApplyRateAction returns the new rate after applying the (clamped) action.
func ApplyRateAction(rate, action float64) float64 {
	a := clampF(action, -1.5, 1.5)
	if a >= 0 {
		rate *= 1 + RateActionScale*a
	} else {
		rate /= 1 - RateActionScale*a
	}
	return clampF(rate, 0.01, 2000)
}

// RewardScale returns the normalization constant for an environment whose
// bandwidth trace has the given mean rate: the Table 1 throughput reward of
// fully utilizing the link, floored so near-idle links do not blow the
// scale up. Raw CC rewards are proportional to link bandwidth, so on a
// [0.1, 100] Mbps training range the fastest environments would otherwise
// dominate every policy-gradient batch and every gap-to-baseline search.
// Dividing by RewardScale expresses each environment's rewards in units of
// "fractions of the link's achievable throughput reward". Reported metrics
// are never normalized.
func RewardScale(meanBWMbps float64) float64 {
	return math.Max(60, RewardThroughputCoef*meanBWMbps)
}

// TrainReward converts a raw Table 1 MI reward into the normalized, clipped
// training signal: raw/scale clipped to [-5, 2]. The asymmetry of the raw
// reward (penalties can reach tens of times the achievable throughput
// reward) would otherwise teach pure risk aversion: probing for bandwidth
// costs far more, in expectation, than utilization can ever pay back.
func TrainReward(raw, scale float64) float64 {
	return clampF(raw/scale, -5, 2)
}

// NewRLEnv returns the scalar training environment over gen: a width-1
// VecEnv seen through rl's slot view, so scalar and vectorized training
// share one copy of the dynamics. Each Reset draws a new instance from the
// generator; training rewards are the Table 1 per-MI rewards compressed by
// TrainReward, while evaluation always reports raw rewards.
func NewRLEnv(gen InstanceGen) *rl.ContinuousSlot {
	return rl.NewContinuousSlot(NewVecEnv(IntoFromGen(gen), 1))
}

// AgentSender adapts a trained rl.GaussianAgent into a Sender so it can be
// evaluated head-to-head with the rule-based baselines. It acts with the
// policy mean (deterministic evaluation) on the training observation
// encoding.
type AgentSender struct {
	Agent *rl.GaussianAgent
	Label string

	enc encoder
	obs [ObsSize]float64
}

// Name implements Sender.
func (a *AgentSender) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "Aurora"
}

// Reset implements Sender.
func (a *AgentSender) Reset(initRate, baseRTT float64) {
	a.enc.reset(initRate)
}

// OnMI implements Sender.
func (a *AgentSender) OnMI(s MIStats) float64 {
	a.enc.push(s)
	a.enc.encode(a.obs[:])
	var act [1]float64 // the one-dimensional rate action
	a.Agent.MeanInto(act[:], a.obs[:])
	a.enc.rate = ApplyRateAction(a.enc.rate, act[0])
	return a.enc.rate
}
