package rl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/faults"
)

// The scalar collect loop is the lockstep engine's reference: one
// environment, one batch-1 policy forward per step, the engine's per-slot
// state machine (record). The engine must reproduce it bit for bit, per
// slot, at every width and worker count, armed or not.

// oracleCollect rolls the stochastic policy through env for up to perSlot
// steps on rng, one step at a time.
func oracleCollect[A any](c *agent[A], env scalarEnv[A], perSlot int, rng *rand.Rand) *Batch {
	st := c.newCollectState(perSlot)
	ps := c.policy.NewScratch(1)
	ws := make([]float64, c.policy.OutSize())
	b := st.begin()
	obs := env.Reset(rng)
	for {
		out := c.policy.ForwardBatch(ps, obs, 1)
		st.pCache.AppendScratch(ps)
		action, tr := c.head.sample(out, ws, rng, &st.ar)
		// Clone before stepping: env may reuse the observation slice.
		tr.Obs = st.ar.clone(obs)
		obs, tr.Reward, tr.Done = env.Step(action)
		if !c.record(st, &tr, obs, perSlot) {
			return b
		}
		if tr.Done {
			obs = env.Reset(rng)
		}
	}
}

// oracleFaultyEnv is the scalar form of the rollout fault sites: it panics
// on EnvStepPanic and hands the agent a NaN-poisoned copy of the
// observation on TraceCorrupt.
type oracleFaultyEnv[A any] struct {
	scalarEnv[A]
	panicSt, corruptSt faults.Stream
	obsBuf             []float64
}

func (e *oracleFaultyEnv[A]) Step(action A) ([]float64, float64, bool) {
	if e.panicSt.Fire() {
		panic(faults.Injected{Site: faults.EnvStepPanic})
	}
	obs, reward, done := e.scalarEnv.Step(action)
	if e.corruptSt.Fire() {
		e.obsBuf = append(e.obsBuf[:0], obs...)
		e.obsBuf[0] = math.NaN()
		obs = e.obsBuf
	}
	return obs, reward, done
}

// oracleIteration is TrainIterationVec spelled out over the scalar loop, one
// slot after another: seeds drawn from rng in slot order, each slot's env
// wrapped in its fault streams keyed by its seed, a slot panic contained
// when the guard is armed, and one update over the survivors.
func oracleIteration[A any](c *agent[A], envs []scalarEnv[A], totalSteps int, rng *rand.Rand) (float64, UpdateStats) {
	perSlot := max(totalSteps/len(envs), 1)
	seeds := make([]int64, len(envs))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	batches := make([]*Batch, len(envs))
	for i, env := range envs {
		env = &oracleFaultyEnv[A]{
			scalarEnv: env,
			panicSt:   c.Faults.Stream(faults.EnvStepPanic, seeds[i]),
			corruptSt: c.Faults.Stream(faults.TraceCorrupt, seeds[i]),
		}
		func() {
			if c.Guard.Enabled() {
				defer func() {
					if v := recover(); v != nil {
						batches[i] = nil
						c.Guard.RecordRolloutFault(v)
					}
				}()
			}
			batches[i] = oracleCollect(c, env, perSlot, rand.New(rand.NewSource(seeds[i])))
		}()
	}
	c.Guard.ObserveRollouts()
	return c.mergeAndUpdate(batches, rng)
}

// TestCollectMatchesOracle pins Collect, the engine at width 1 on the
// caller's rng, against the scalar loop on both heads.
func TestCollectMatchesOracle(t *testing.T) {
	d, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rand.New(rand.NewSource(35)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rand.New(rand.NewSource(36)))
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int{1, 20, 150} {
		want := oracleCollect(&d.agent, &bandit{nActions: 3}, steps, rand.New(rand.NewSource(5)))
		got := d.Collect(&bandit{nActions: 3}, steps, rand.New(rand.NewSource(5)))
		sameBatch(t, fmt.Sprintf("discrete/%d", steps), want, got)
		want = oracleCollect(&g.agent, &tracker{}, steps, rand.New(rand.NewSource(6)))
		got = g.Collect(&tracker{}, steps, rand.New(rand.NewSource(6)))
		sameBatch(t, fmt.Sprintf("gaussian/%d", steps), want, got)
	}
}

func sameBatch(t *testing.T, tag string, want, got *Batch) {
	t.Helper()
	if want.Episodes != got.Episodes || want.TotalReward != got.TotalReward {
		t.Fatalf("%s: batch header diverges: %d/%v vs %d/%v", tag, want.Episodes, want.TotalReward, got.Episodes, got.TotalReward)
	}
	sameTransitions(t, tag, want.Transitions, got.Transitions)
}

// TestArmedTrainIterationMatchesOracle pins the armed engine against the
// scalar loop: with the guard, EnvStepPanic and TraceCorrupt armed (the
// armedRun setup), both heads must take the same steps, contain the same
// slots and end in the same state, guard counters and fault-site call
// counts, at every RolloutWorkers and UpdateWorkers value. The oracle
// updates on one worker, so from two update workers the lanes' barrier
// path is held to the interleaved loop.
func TestArmedTrainIterationMatchesOracle(t *testing.T) {
	const k, steps, iters = 4, 160, 8
	for _, h := range guardHeads {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			ref := h.mk(t, rng)
			ref.rt.UpdateWorkers = 1
			refGuard, refFaults := armRollouts(ref.rt)
			for i := 0; i < iters; i++ {
				ref.oracle(k, steps, rng)
			}
			want := refGuard.Snapshot()
			if want.RolloutFaults == 0 || want.Skipped == 0 {
				t.Fatalf("oracle run contained nothing or skipped nothing: %s", want)
			}
			for _, w := range []int{1, 2, 4} {
				for _, uw := range []int{1, 2, 4} {
					rng := rand.New(rand.NewSource(17))
					a := h.mk(t, rng)
					a.rt.RolloutWorkers, a.rt.UpdateWorkers = w, uw
					g, in := armRollouts(a.rt)
					for i := 0; i < iters; i++ {
						a.train(k, steps, rng)
					}
					if got := g.Snapshot(); got != want {
						t.Fatalf("workers %d/%d: guard %s, oracle %s", w, uw, got, want)
					}
					if in.String() != refFaults.String() {
						t.Fatalf("workers %d/%d: faults %s, oracle %s", w, uw, in, refFaults)
					}
					if !bytes.Equal(a.state(t), ref.state(t)) {
						t.Fatalf("workers %d/%d: agent state diverges from the oracle", w, uw)
					}
				}
			}
		})
	}
}
