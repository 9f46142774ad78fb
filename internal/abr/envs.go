package abr

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/rl"
	"github.com/genet-go/genet/internal/trace"
)

// Instance is one concrete ABR environment: a video, a bandwidth trace, and
// session parameters, all materialized from an environment configuration.
// An Instance can be replayed any number of times (each NewSim starts a
// fresh session over the same content and trace), so RL policies and
// rule-based baselines can be compared on identical conditions.
type Instance struct {
	Video  *Video
	Trace  *trace.Trace
	SimCfg SimConfig

	// synth is the reusable synthetic-trace scratch for in-place
	// regeneration (InstanceInto). It is distinct from Trace because a
	// trace-driven episode points Trace at a shared trace-set entry, which
	// must never be written; the synthetic scratch survives such episodes
	// so the next synthetic one can reuse its arrays.
	synth *trace.Trace
}

// NewInstance materializes an environment from cfg. When tr is nil a
// synthetic bandwidth trace is generated per §A.2 from the configuration's
// bandwidth dimensions; otherwise tr drives the bandwidth (trace-driven
// environment) and only the non-bandwidth dimensions of cfg apply.
func NewInstance(cfg env.Config, tr *trace.Trace, rng *rand.Rand) (*Instance, error) {
	video, err := NewVideo(cfg.Get(env.ABRVideoLength), cfg.Get(env.ABRChunkLength), DefaultBitratesKbps, rng)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		maxBW := cfg.Get(env.ABRMaxBW)
		tr, err = trace.GenerateABR(trace.ABRGenConfig{
			MinBW:          cfg.Get(env.ABRBWMinRatio) * maxBW,
			MaxBW:          maxBW,
			ChangeInterval: cfg.Get(env.ABRBWChangeInterval),
			// Generate enough trace to cover slow sessions; it wraps anyway.
			Duration: cfg.Get(env.ABRVideoLength) * 3,
		}, rng)
		if err != nil {
			return nil, err
		}
	}
	return &Instance{
		Video: video,
		Trace: tr,
		SimCfg: SimConfig{
			RTTMs:        cfg.Get(env.ABRMinRTT),
			MaxBufferSec: cfg.Get(env.ABRMaxBuffer),
		},
	}, nil
}

// NewSim starts a fresh session over this instance.
func (in *Instance) NewSim() *Sim {
	s, err := NewSim(in.Video, in.Trace, in.SimCfg)
	if err != nil {
		panic(fmt.Sprintf("abr: instance invariant violated: %v", err)) // instances are validated at construction
	}
	return s
}

// ResetSim restarts s in place as a fresh session over this instance,
// equivalent to NewSim without the allocation.
func (in *Instance) ResetSim(s *Sim) {
	if err := s.Init(in.Video, in.Trace, in.SimCfg); err != nil {
		panic(fmt.Sprintf("abr: instance invariant violated: %v", err)) // instances are validated at construction
	}
}

// Evaluate streams the instance's video with policy and returns metrics.
func (in *Instance) Evaluate(policy Policy) Metrics {
	return RunEpisode(in.NewSim(), policy)
}

// EvaluateOmniscient runs the ground-truth-bandwidth MPC oracle on the
// instance (the Strawman-3 "optimum").
func (in *Instance) EvaluateOmniscient(horizon int) Metrics {
	sim := in.NewSim()
	return RunEpisode(sim, NewOmniscientMPC(sim, horizon))
}

// ObsSize is the length of the RL observation vector.
const ObsSize = 2 + 2*HistLen + 6 + 3

// squash maps a non-negative quantity into [0,1) with soft saturation at c.
func squash(x, c float64) float64 {
	if x < 0 {
		x = 0
	}
	return x / (x + c)
}

// AppendObsVector appends the ObsSize-element encoding of obs, the
// fixed-length input of the RL policy network, to v and returns the
// extended slice. Both the training environment and the AgentPolicy
// evaluation adapter use this single encoder, so train and test views are
// identical by construction. Hot-path callers pass a reused or stack
// buffer sliced to [:0].
func AppendObsVector(v []float64, obs *Observation) []float64 {
	lastBr := 0.0
	if obs.LastLevel >= 0 {
		lastBr = obs.Video.BitrateMbps(obs.LastLevel) / obs.Video.BitrateMbps(obs.Video.NumLevels()-1)
	}
	v = append(v, lastBr)
	v = append(v, squash(obs.Buffer, 10))
	// The soft-saturation constant 3 concentrates resolution in the
	// 0.3-10 Mbps band where the bitrate ladder lives.
	for _, t := range obs.ThroughputHist {
		v = append(v, squash(t, 3))
	}
	for _, d := range obs.DownloadHist {
		v = append(v, squash(d, 3))
	}
	topSize := obs.Video.BitrateMbps(obs.Video.NumLevels()-1) * obs.Video.ChunkLength / 8 * 1e6
	for l := 0; l < 6; l++ {
		if obs.NextSizes != nil && l < len(obs.NextSizes) {
			v = append(v, obs.NextSizes[l]/topSize)
		} else {
			v = append(v, 0)
		}
	}
	v = append(v, float64(obs.RemainingChunks)/float64(max(1, obs.TotalChunks)))
	v = append(v, squash(obs.Video.ChunkLength, 10))
	v = append(v, squash(obs.MaxBuffer, 100))
	return v
}

// Buffer thresholds (seconds) of Fallback: below the reservoir the lowest
// bitrate is picked, above the cushion the highest, linear in between —
// the BBA rate map. They are Fallback's own, not BBA's.
const (
	fallbackReservoirSec = 5.0
	fallbackCushionSec   = 20.0
)

// fallbackObsBuffer is the index of the squashed buffer occupancy in the
// observation vector (after the last-bitrate feature).
const fallbackObsBuffer = 1

// Fallback is the rule-based bitrate pick a policy server answers with when
// its learned model is quarantined: a pure function of one ObsSize
// observation. AppendObsVector stores squash(buffer, 10) = b/(b+10); the
// fallback inverts it to seconds and maps [reservoir, cushion] linearly onto
// the default ladder.
func Fallback(obs []float64) int {
	n := len(DefaultBitratesKbps)
	x := obs[fallbackObsBuffer]
	if x >= 1 {
		return n - 1
	}
	if x < 0 {
		x = 0
	}
	bufSec := 10 * x / (1 - x)
	if bufSec <= fallbackReservoirSec {
		return 0
	}
	if bufSec >= fallbackCushionSec {
		return n - 1
	}
	frac := (bufSec - fallbackReservoirSec) / (fallbackCushionSec - fallbackReservoirSec)
	level := int(frac * float64(n-1))
	if level > n-1 {
		level = n - 1
	}
	return level
}

// InstanceGen produces a fresh environment instance per episode; rl training
// draws one per Reset, which realizes the paper's "N random environments per
// configuration".
type InstanceGen func(rng *rand.Rand) *Instance

// GenFromConfig returns a generator that materializes synthetic instances of
// one fixed configuration.
func GenFromConfig(cfg env.Config) InstanceGen {
	return func(rng *rand.Rand) *Instance {
		in, err := NewInstance(cfg, nil, rng)
		if err != nil {
			panic(fmt.Sprintf("abr: config instance: %v", err))
		}
		return in
	}
}

// GenFromDistribution returns a generator that first samples a configuration
// from dist, then, with probability traceProb, swaps in a bandwidth trace
// sampled from set whose features fall within the configuration's bandwidth
// range when possible (§4.2's trace-driven augmentation).
func GenFromDistribution(dist *env.Distribution, set *trace.Set, traceProb float64) InstanceGen {
	return func(rng *rand.Rand) *Instance {
		cfg := dist.Sample(rng)
		var tr *trace.Trace
		if set != nil && set.Len() > 0 && rng.Float64() < traceProb {
			tr = pickMatchingTrace(cfg, set, rng)
		}
		in, err := NewInstance(cfg, tr, rng)
		if err != nil {
			panic(fmt.Sprintf("abr: distribution instance: %v", err))
		}
		return in
	}
}

// pickMatchingTrace samples a trace whose bandwidth features fall inside the
// configuration's bandwidth range, falling back to a uniform draw when none
// matches (the config's range may be empty in the set).
func pickMatchingTrace(cfg env.Config, set *trace.Set, rng *rand.Rand) *trace.Trace {
	maxBW := cfg.Get(env.ABRMaxBW)
	minBW := cfg.Get(env.ABRBWMinRatio) * maxBW
	matching := set.Filter(func(f trace.Features) bool {
		return f.MeanBW >= minBW && f.MeanBW <= maxBW
	})
	if matching.Len() == 0 {
		return set.Sample(rng)
	}
	return matching.Sample(rng)
}

// InstanceInto is the reusing form of InstanceGen: it materializes a fresh
// environment instance per episode, writing into prev's backing arrays when
// prev is non-nil. The rng consumption is identical to the corresponding
// InstanceGen, so a slot driven by an InstanceInto sees bit-identical
// episodes to one driven by the equivalent generator with the same rng.
type InstanceInto func(rng *rand.Rand, prev *Instance) *Instance

// regenInstance is NewInstance writing into prev, preserving NewInstance's
// rng draw order (video first, then synthetic trace).
func regenInstance(cfg env.Config, tr *trace.Trace, rng *rand.Rand, prev *Instance) (*Instance, error) {
	if prev == nil {
		prev = &Instance{}
	}
	video, err := NewVideoInto(prev.Video, cfg.Get(env.ABRVideoLength), cfg.Get(env.ABRChunkLength), DefaultBitratesKbps, rng)
	if err != nil {
		return nil, err
	}
	prev.Video = video
	if tr == nil {
		maxBW := cfg.Get(env.ABRMaxBW)
		synth, err := trace.GenerateABRInto(prev.synth, trace.ABRGenConfig{
			MinBW:          cfg.Get(env.ABRBWMinRatio) * maxBW,
			MaxBW:          maxBW,
			ChangeInterval: cfg.Get(env.ABRBWChangeInterval),
			// Generate enough trace to cover slow sessions; it wraps anyway.
			Duration: cfg.Get(env.ABRVideoLength) * 3,
		}, rng)
		if err != nil {
			return nil, err
		}
		prev.synth = synth
		tr = synth
	}
	prev.Trace = tr
	prev.SimCfg = SimConfig{
		RTTMs:        cfg.Get(env.ABRMinRTT),
		MaxBufferSec: cfg.Get(env.ABRMaxBuffer),
	}
	return prev, nil
}

// IntoFromConfig is GenFromConfig in reusing form.
func IntoFromConfig(cfg env.Config) InstanceInto {
	return func(rng *rand.Rand, prev *Instance) *Instance {
		in, err := regenInstance(cfg, nil, rng, prev)
		if err != nil {
			panic(fmt.Sprintf("abr: config instance: %v", err))
		}
		return in
	}
}

// IntoFromDistribution is GenFromDistribution in reusing form. Trace-driven
// episodes alias the sampled set trace (never written); synthetic episodes
// reuse the instance's private trace scratch.
func IntoFromDistribution(dist *env.Distribution, set *trace.Set, traceProb float64) InstanceInto {
	return func(rng *rand.Rand, prev *Instance) *Instance {
		cfg := dist.Sample(rng)
		var tr *trace.Trace
		if set != nil && set.Len() > 0 && rng.Float64() < traceProb {
			tr = pickMatchingTrace(cfg, set, rng)
		}
		in, err := regenInstance(cfg, tr, rng, prev)
		if err != nil {
			panic(fmt.Sprintf("abr: distribution instance: %v", err))
		}
		return in
	}
}

// IntoFromGen adapts any InstanceGen as an InstanceInto (without reuse — the
// generator allocates per episode as always).
func IntoFromGen(gen InstanceGen) InstanceInto {
	return func(rng *rand.Rand, _ *Instance) *Instance { return gen(rng) }
}

// NewRLEnv returns the scalar training environment over gen: a width-1
// VecEnv seen through rl's slot view, so scalar and vectorized training
// share one copy of the dynamics. Each Reset draws a new instance from the
// generator.
func NewRLEnv(gen InstanceGen) *rl.DiscreteSlot {
	return rl.NewDiscreteSlot(NewVecEnv(IntoFromGen(gen), 1))
}

// RewardScale returns the per-environment training-reward normalizer: the
// best per-chunk bitrate reward achievable on the environment (the link's
// mean rate capped by the ladder top, floored at the ladder bottom). Raw
// rewards on a slow, stall-prone environment reach tens of negative units
// while easy environments top out near +4.3; without normalization the
// hard environments a curriculum promotes dominate every policy-gradient
// batch and push the policy into a lowest-bitrate collapse. Evaluation
// metrics are never normalized.
func RewardScale(meanBWMbps float64, v *Video) float64 {
	top := v.BitrateMbps(v.NumLevels() - 1)
	return math.Min(top, math.Max(v.BitrateMbps(0), meanBWMbps))
}

// TrainReward converts a raw per-chunk Table 1 reward into the normalized,
// clipped training signal: raw/scale clipped to [-5, 2].
func TrainReward(raw, scale float64) float64 {
	r := raw / scale
	if r < -5 {
		return -5
	}
	if r > 2 {
		return 2
	}
	return r
}

// AgentPolicy adapts a trained rl.DiscreteAgent into an abr.Policy for
// head-to-head evaluation against the rule-based baselines. It acts
// greedily (argmax), the standard evaluation mode.
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
