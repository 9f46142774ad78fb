package rl

import (
	"math"

	"github.com/genet-go/genet/internal/faults"
)

// faultyEnv wraps a training environment with the two rollout-side
// injection sites: EnvStepPanic (the env dies mid-step, exercising
// containment and quarantine) and TraceCorrupt (a poisoned trace sample —
// NaN in the observation — flows into the policy and surfaces later as a
// non-finite update, exercising the pre-apply scan). Decision streams are
// keyed by the env's deterministic seed, so chaos schedules are replayable
// regardless of worker scheduling.
//
// Corruption copies the observation into a wrapper-owned buffer before
// poisoning it: the inner env may own (and reuse or re-read) the slice
// it returned, and a fault injector must not corrupt simulator state —
// only what the agent observes.
type faultyEnv[A any] struct {
	scalarEnv[A]
	panicSt   faults.Stream
	corruptSt faults.Stream
	obsBuf    []float64
}

func (e *faultyEnv[A]) Step(action A) (obs []float64, reward float64, done bool) {
	if e.panicSt.Fire() {
		panic(faults.Injected{Site: faults.EnvStepPanic})
	}
	obs, reward, done = e.scalarEnv.Step(action)
	if e.corruptSt.Fire() {
		e.obsBuf = append(e.obsBuf[:0], obs...)
		if len(e.obsBuf) > 0 {
			e.obsBuf[0] = math.NaN()
		}
		obs = e.obsBuf
	}
	return obs, reward, done
}
