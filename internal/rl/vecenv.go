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
// must not be shared mutably across slots. StepSlot must not read obs: the
// engine may have poisoned the row (the TraceCorrupt fault site) since the
// slot wrote it. NewDiscreteSlot turns a width-1 env back into a DiscreteEnv.
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

// DiscreteSlot is a width-1 DiscreteVecEnv seen as a DiscreteEnv. The abr,
// cc and lb packages build their scalar RLEnv this way, over their VecEnv,
// so the VecEnv is the one copy of each use case's training dynamics. Reset
// and Step return the slot's own observation row, rewritten by the next
// call.
type DiscreteSlot struct {
	slotEnv[int, DiscreteVecEnv]
}

// NewDiscreteSlot views the one slot of v as a DiscreteEnv.
func NewDiscreteSlot(v DiscreteVecEnv) *DiscreteSlot {
	return &DiscreteSlot{newSlotEnv[int](v)}
}

// NumActions implements DiscreteEnv.
func (s *DiscreteSlot) NumActions() int { return s.v.NumActions() }

// ContinuousSlot is the continuous-action twin of DiscreteSlot.
type ContinuousSlot struct {
	slotEnv[[]float64, ContinuousVecEnv]
}

// NewContinuousSlot views the one slot of v as a ContinuousEnv.
func NewContinuousSlot(v ContinuousVecEnv) *ContinuousSlot {
	return &ContinuousSlot{newSlotEnv[[]float64](v)}
}

// ActionDim implements ContinuousEnv.
func (s *ContinuousSlot) ActionDim() int { return s.v.ActionDim() }

// slotEnv is the core of DiscreteSlot and ContinuousSlot: slot 0 of v over
// an observation row of its own.
type slotEnv[A any, V vecEnv[A]] struct {
	v   V
	row []float64
}

func newSlotEnv[A any, V vecEnv[A]](v V) slotEnv[A, V] {
	if v.Width() != 1 {
		panic(fmt.Sprintf("rl: slot view of a width-%d env", v.Width()))
	}
	return slotEnv[A, V]{v: v, row: make([]float64, v.ObsSize())}
}

// ObsSize implements DiscreteEnv and ContinuousEnv.
func (s *slotEnv[A, V]) ObsSize() int { return s.v.ObsSize() }

// Reset implements DiscreteEnv and ContinuousEnv.
func (s *slotEnv[A, V]) Reset(rng *rand.Rand) []float64 {
	s.v.ResetSlot(0, rng, s.row)
	return s.row
}

// Step implements DiscreteEnv and ContinuousEnv.
func (s *slotEnv[A, V]) Step(action A) ([]float64, float64, bool) {
	reward, done := s.v.StepSlot(0, action, s.row)
	return s.row, reward, done
}
