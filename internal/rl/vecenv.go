package rl

import (
	"fmt"
	"math/rand"
)

// DiscreteVecEnv is a fixed-width batch of independent discrete-action
// environments addressed by slot index. It is the environment side of the
// vectorized rollout engine: one goroutine steps many slots in lockstep and
// feeds their stacked observations through one batched policy forward per
// tick instead of one single-row forward per environment step.
//
// The contract mirrors DiscreteEnv per slot:
//
//   - ResetSlot starts a new episode in slot i, drawing all of the episode's
//     randomness from rng, and writes the initial observation into obs
//     (len == ObsSize).
//   - StepSlot applies an action to slot i and overwrites obs with the next
//     observation, returning the transition reward and terminal flag.
//
// Slots must be independent: the engine may step different slots from
// different goroutines (never the same slot concurrently), so per-slot state
// must not be shared mutably across slots. A slot's dynamics given its rng
// draws must be identical to the scalar environment it vectorizes — the
// equivalence tests in the abr, cc, and lb packages pin this bit-exactly.
type DiscreteVecEnv interface {
	ObsSize() int
	NumActions() int
	// Width returns the number of slots.
	Width() int
	ResetSlot(i int, rng *rand.Rand, obs []float64)
	StepSlot(i int, action int, obs []float64) (reward float64, done bool)
}

// ContinuousVecEnv is the continuous-action twin of DiscreteVecEnv.
type ContinuousVecEnv interface {
	ObsSize() int
	ActionDim() int
	Width() int
	ResetSlot(i int, rng *rand.Rand, obs []float64)
	StepSlot(i int, action []float64, obs []float64) (reward float64, done bool)
}

// VecDiscrete wraps independent scalar environments as a DiscreteVecEnv, one
// slot per environment. It is the generic adapter for environments without a
// native struct-of-arrays implementation: stepping stays scalar (including
// the wrapped env's per-step allocations), but action sampling still batches
// through the vectorized engine.
func VecDiscrete(envs ...DiscreteEnv) DiscreteVecEnv {
	return vecDiscrete{newVecAdapter("VecDiscrete", envs, DiscreteEnv.NumActions)}
}

type vecDiscrete struct {
	vecAdapter[int, DiscreteEnv]
}

func (v vecDiscrete) NumActions() int { return v.envs[0].NumActions() }

// VecContinuous wraps independent scalar environments as a ContinuousVecEnv.
func VecContinuous(envs ...ContinuousEnv) ContinuousVecEnv {
	return vecContinuous{newVecAdapter("VecContinuous", envs, ContinuousEnv.ActionDim)}
}

type vecContinuous struct {
	vecAdapter[[]float64, ContinuousEnv]
}

func (v vecContinuous) ActionDim() int { return v.envs[0].ActionDim() }

// vecAdapter is the slot-per-environment core of VecDiscrete and
// VecContinuous.
type vecAdapter[A any, E scalarEnv[A]] struct {
	envs []E
}

// newVecAdapter checks that envs agree on observation width and action
// shape (actionShape).
func newVecAdapter[A any, E scalarEnv[A]](name string, envs []E, actionShape func(E) int) vecAdapter[A, E] {
	if len(envs) == 0 {
		panic("rl: " + name + " of zero environments")
	}
	for _, e := range envs {
		if e.ObsSize() != envs[0].ObsSize() || actionShape(e) != actionShape(envs[0]) {
			panic("rl: " + name + " over mismatched environments")
		}
	}
	return vecAdapter[A, E]{envs: envs}
}

func (v vecAdapter[A, E]) ObsSize() int { return v.envs[0].ObsSize() }
func (v vecAdapter[A, E]) Width() int   { return len(v.envs) }

func (v vecAdapter[A, E]) ResetSlot(i int, rng *rand.Rand, obs []float64) {
	copyObs(obs, v.envs[i].Reset(rng), v.ObsSize())
}

func (v vecAdapter[A, E]) StepSlot(i int, action A, obs []float64) (float64, bool) {
	next, reward, done := v.envs[i].Step(action)
	copyObs(obs, next, v.ObsSize())
	return reward, done
}

func copyObs(dst, src []float64, d int) {
	if len(src) != d {
		panic(fmt.Sprintf("rl: env returned obs of len %d, want %d", len(src), d))
	}
	copy(dst, src)
}

// slotEnv adapts one slot of a vectorized environment back into a scalar
// environment over a caller-owned observation row. TrainIterationVec uses
// it on the guarded/fault-injected fallback path, where per-slot panic
// containment and fault-stream wrapping need the scalar collect loop. The
// returned observation slice is reused between calls; the scalar loop
// clones each observation into its arena before stepping, so the aliasing
// is safe.
type slotEnv[A any] struct {
	v   vecEnv[A]
	i   int
	row []float64
}

func (s *slotEnv[A]) ObsSize() int { return s.v.ObsSize() }

func (s *slotEnv[A]) Reset(rng *rand.Rand) []float64 {
	s.v.ResetSlot(s.i, rng, s.row)
	return s.row
}

func (s *slotEnv[A]) Step(action A) ([]float64, float64, bool) {
	reward, done := s.v.StepSlot(s.i, action, s.row)
	return s.row, reward, done
}
