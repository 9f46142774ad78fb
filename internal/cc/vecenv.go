package cc

import (
	"math"
	"math/rand"
)

// VecEnv is the vectorized CC training environment: K independent
// connections with per-slot state regenerated in place (synthetic trace,
// simulator, feature history) instead of reallocated per episode. It
// implements rl.ContinuousVecEnv, and NewRLEnv is its width-1 slot view;
// slot i driven with rng R is bit-identical to NewRLEnv over the same
// generator driven with the same R.
type VecEnv struct {
	gen   InstanceGen
	slots []vecSlot
}

// vecSlot is one connection's reusable state.
type vecSlot struct {
	inst  *Instance
	sim   Sim
	scale float64
	enc   encoder // the sending rate and feature history
}

// NewVecEnv builds a width-slot vectorized environment over the generator.
func NewVecEnv(gen InstanceGen, width int) *VecEnv {
	if width <= 0 {
		panic("cc: non-positive vec env width")
	}
	return &VecEnv{gen: gen, slots: make([]vecSlot, width)}
}

// ObsSize implements rl.ContinuousVecEnv.
func (*VecEnv) ObsSize() int { return ObsSize }

// ActionDim implements rl.ContinuousVecEnv.
func (*VecEnv) ActionDim() int { return 1 }

// Width implements rl.ContinuousVecEnv.
func (v *VecEnv) Width() int { return len(v.slots) }

// ResetSlot implements rl.ContinuousVecEnv: draw the instance, start a
// connection (the slot's rng also drives loss and delay noise), draw the
// initial rate, clear the history.
//
// The initial sending rate is drawn log-uniformly between a trickle and 2x
// the link's mean rate. Evaluation always starts at the fixed 0.5 Mbps
// (RunEpisode's default); randomizing only the *training* initial state
// ensures the policy experiences high-rate states early, without which
// on-policy exploration rarely escapes the send-at-minimum local optimum.
func (v *VecEnv) ResetSlot(i int, rng *rand.Rand, obs []float64) {
	s := &v.slots[i]
	s.inst = v.gen(rng, s.inst)
	if err := s.sim.Init(s.inst.Trace, s.inst.Link, rng); err != nil {
		panic("cc: instance invariant violated: " + err.Error())
	}
	meanBW := s.inst.Trace.Mean()
	lo, hi := 0.05, math.Max(0.1, 2*meanBW)
	s.enc.reset(lo * math.Exp(rng.Float64()*math.Log(hi/lo)))
	s.scale = RewardScale(meanBW)
	s.enc.encode(obs)
}

// StepSlot implements rl.ContinuousVecEnv: apply the rate action, run one
// monitor interval, and reward it with the compressed Table 1 reward.
func (v *VecEnv) StepSlot(i int, action []float64, obs []float64) (float64, bool) {
	s := &v.slots[i]
	if s.inst == nil {
		panic("cc: StepSlot before ResetSlot")
	}
	s.enc.rate = ApplyRateAction(s.enc.rate, action[0])
	mi := s.sim.RunMI(s.enc.rate)
	s.enc.push(mi)
	done := s.sim.Clock() >= s.inst.Duration
	s.enc.encode(obs)
	return TrainReward(mi.Reward(), s.scale), done
}
