package lb

import (
	"fmt"
	"math/rand"
)

// VecEnv is the vectorized LB training environment: K independent episodes
// stepped in lockstep, implementing rl.DiscreteVecEnv; NewRLEnv is its
// width-1 slot view. Unlike the abr and cc vectorized environments it
// regenerates workloads through the ordinary EnvGen (the LB episode state is
// a cluster of heaps that NewStepper sizes per workload; its per-episode
// allocation is modest and not on the pinned path), but observations are
// encoded into the engine's row buffers without per-step allocation.
type VecEnv struct {
	gen   EnvGen
	slots []vecSlot
}

type vecSlot struct {
	stepper *Stepper
}

// NewVecEnv builds a width-slot vectorized environment over the generator.
func NewVecEnv(gen EnvGen, width int) *VecEnv {
	if width <= 0 {
		panic("lb: non-positive vec env width")
	}
	return &VecEnv{gen: gen, slots: make([]vecSlot, width)}
}

// ObsSize implements rl.DiscreteVecEnv.
func (*VecEnv) ObsSize() int { return ObsSize }

// NumActions implements rl.DiscreteVecEnv.
func (*VecEnv) NumActions() int { return NumServers }

// Width implements rl.DiscreteVecEnv.
func (v *VecEnv) Width() int { return len(v.slots) }

// ResetSlot implements rl.DiscreteVecEnv: draw a workload and start its
// job stream.
func (v *VecEnv) ResetSlot(i int, rng *rand.Rand, obs []float64) {
	s := &v.slots[i]
	envr := v.gen(rng)
	st, err := envr.NewStepper(rng)
	if err != nil {
		panic(fmt.Sprintf("lb: stepper: %v", err))
	}
	s.stepper = st
	AppendObsVector(obs[:0], st.Observe())
}

// StepSlot implements rl.DiscreteVecEnv: route the arriving job to the
// action's server, reward the capped negative slowdown, and write the next
// job's observation (zero after the last job).
func (v *VecEnv) StepSlot(i int, action int, obs []float64) (float64, bool) {
	s := &v.slots[i]
	if s.stepper == nil {
		panic("lb: StepSlot before ResetSlot")
	}
	slow, _ := s.stepper.Assign(action)
	if slow > slowdownRewardCap {
		slow = slowdownRewardCap
	}
	reward := -slow
	if s.stepper.Done() {
		clear(obs)
		return reward, true
	}
	AppendObsVector(obs[:0], s.stepper.Observe())
	return reward, false
}
