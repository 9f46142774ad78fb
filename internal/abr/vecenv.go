package abr

import (
	"math/rand"
)

// VecEnv is the vectorized ABR training environment: K independent
// streaming sessions held in per-slot state that is regenerated in place
// (video sizes, synthetic trace, simulator, observation, buffers) instead of
// reallocated per episode. It implements rl.DiscreteVecEnv, and NewRLEnv is
// its width-1 slot view; slot i driven with rng R produces bit-identical
// episodes to NewRLEnv over the same generator driven with the same R.
type VecEnv struct {
	gen   InstanceGen
	slots []vecSlot
}

// vecSlot is one session's reusable state.
type vecSlot struct {
	inst      *Instance
	sim       Sim
	obs       Observation
	scale     float64
	nextSizes []float64
	started   bool
}

// NewVecEnv builds a width-slot vectorized environment over the
// generator. Slots are independent: each episode's instance is drawn
// with the slot's own rng at ResetSlot time.
func NewVecEnv(gen InstanceGen, width int) *VecEnv {
	if width <= 0 {
		panic("abr: non-positive vec env width")
	}
	return &VecEnv{gen: gen, slots: make([]vecSlot, width)}
}

// ObsSize implements rl.DiscreteVecEnv.
func (*VecEnv) ObsSize() int { return ObsSize }

// NumActions implements rl.DiscreteVecEnv.
func (*VecEnv) NumActions() int { return len(DefaultBitratesKbps) }

// Width implements rl.DiscreteVecEnv.
func (v *VecEnv) Width() int { return len(v.slots) }

// ResetSlot implements rl.DiscreteVecEnv: it regenerates slot i's instance
// in place, restarts its session, and writes the initial observation into
// obs (length ObsSize).
func (v *VecEnv) ResetSlot(i int, rng *rand.Rand, obs []float64) {
	s := &v.slots[i]
	s.inst = v.gen(rng, s.inst)
	s.inst.ResetSim(&s.sim)
	s.scale = RewardScale(s.inst.Trace.Mean(), s.inst.Video)
	if s.obs.ThroughputHist == nil {
		s.obs.ThroughputHist = make([]float64, HistLen)
		s.obs.DownloadHist = make([]float64, HistLen)
	} else {
		clear(s.obs.ThroughputHist)
		clear(s.obs.DownloadHist)
	}
	s.obs.Video = s.sim.Video()
	s.obs.MaxBuffer = s.inst.SimCfg.MaxBufferSec
	s.obs.LastLevel = -1
	s.obs.LastRebuffer = 0
	s.obs.TotalChunks = s.sim.Video().NumChunks()
	s.started = true
	s.syncObs()
	AppendObsVector(obs[:0], &s.obs)
}

// StepSlot implements rl.DiscreteVecEnv: it advances slot i's session by one
// chunk and overwrites obs with the next observation.
func (v *VecEnv) StepSlot(i int, action int, obs []float64) (float64, bool) {
	s := &v.slots[i]
	if !s.started {
		panic("abr: StepSlot before ResetSlot")
	}
	res := s.sim.Next(action)
	pushHist(s.obs.ThroughputHist, res.Throughput)
	pushHist(s.obs.DownloadHist, res.DownloadTime)
	s.obs.LastLevel = res.Level
	s.obs.LastRebuffer = res.Rebuffer
	s.syncObs()
	AppendObsVector(obs[:0], &s.obs)
	return TrainReward(res.Reward, s.scale), res.Done
}

// syncObs refreshes the observation from the session, reusing the
// NextSizes buffer. When the session is done NextSizesInto returns nil and
// the observation carries no next sizes, but the slot keeps its backing
// buffer for the next episode.
func (s *vecSlot) syncObs() {
	s.obs.Buffer = s.sim.Buffer()
	if ns := s.sim.NextSizesInto(s.nextSizes[:0]); ns != nil {
		s.nextSizes = ns
		s.obs.NextSizes = ns
	} else {
		s.obs.NextSizes = nil
	}
	s.obs.RemainingChunks = s.sim.RemainingChunks()
}
