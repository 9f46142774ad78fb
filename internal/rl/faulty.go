package rl

import (
	"math"

	"github.com/genet-go/genet/internal/faults"
)

// faultyVec wraps a vectorized training environment with the two
// rollout-side injection sites: EnvStepPanic (a slot's env dies mid-step,
// exercising containment and quarantine) and TraceCorrupt (a poisoned trace
// sample — NaN in a slot's observation — flows into the policy and surfaces
// later as a non-finite update, exercising the pre-apply scan). Each slot's
// decision streams are keyed by its seed, so chaos schedules are replayable
// regardless of worker scheduling.
//
// Corruption writes into the engine's observation row after the step has
// written it: a fault injector must corrupt only what the agent observes,
// never simulator state.
type faultyVec[A any] struct {
	vecEnv[A]
	panicSt, corruptSt []faults.Stream
}

// wrap returns venv itself when neither rollout site of in is armed, and
// otherwise f, rearmed over venv with slot i's streams keyed by seeds[i].
func (f *faultyVec[A]) wrap(venv vecEnv[A], in *faults.Injector, seeds []int64) vecEnv[A] {
	if !in.SiteEnabled(faults.EnvStepPanic) && !in.SiteEnabled(faults.TraceCorrupt) {
		return venv
	}
	f.vecEnv = venv
	f.panicSt = grow(f.panicSt, len(seeds))
	f.corruptSt = grow(f.corruptSt, len(seeds))
	for i, seed := range seeds {
		f.panicSt[i] = in.Stream(faults.EnvStepPanic, seed)
		f.corruptSt[i] = in.Stream(faults.TraceCorrupt, seed)
	}
	return f
}

func (f *faultyVec[A]) StepSlot(i int, action A, obs []float64) (reward float64, done bool) {
	if f.panicSt[i].Fire() {
		panic(faults.Injected{Site: faults.EnvStepPanic})
	}
	reward, done = f.vecEnv.StepSlot(i, action, obs)
	if f.corruptSt[i].Fire() && len(obs) > 0 {
		obs[0] = math.NaN()
	}
	return reward, done
}
