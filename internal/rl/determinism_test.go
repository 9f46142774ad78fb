package rl

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/guard"
)

// The parallel update is required to be bit-deterministic in the worker
// count: shards are a fixed 64-transition partition of the batch reduced in
// index order, so 1 worker and N workers must produce identical floats (see
// updateShardSize). These tests train two identically-seeded agents that
// differ only in UpdateWorkers and demand bit-equal UpdateStats and
// bit-equal serialized parameters after several iterations. Batches span
// multiple shards (>64 transitions) so the reduction order is actually
// exercised.

func savedParams(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDiscreteUpdateWorkerCountInvariance(t *testing.T) {
	cfg := DefaultDiscreteConfig(3, 3)
	a1, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	a8, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	a1.UpdateWorkers = 1
	a8.UpdateWorkers = 8

	rng1 := rand.New(rand.NewSource(99))
	rng8 := rand.New(rand.NewSource(99))
	for i := 0; i < 5; i++ {
		// 2 envs x 100 steps = 200 transitions = 4 shards per update.
		_, s1 := a1.TrainIterationVec(banditVec(2), 100, rng1)
		_, s8 := a8.TrainIterationVec(banditVec(2), 100, rng8)
		if s1 != s8 {
			t.Fatalf("iter %d: UpdateStats diverge between 1 and 8 workers:\n%+v\n%+v", i, s1, s8)
		}
	}
	p1 := savedParams(t, a1.Save)
	p8 := savedParams(t, a8.Save)
	if !bytes.Equal(p1, p8) {
		t.Fatal("serialized parameters diverge between 1 and 8 workers")
	}
}

// ccObsSize is cc.ObsSize, the width of the CC harness's observations
// (internal/cc imports this package, so this test cannot import it).
const ccObsSize = 31

// ccShaped is a continuous tracking task with the CC harness's observation
// width: the target is redrawn every step and spread over all ccObsSize
// features; reward is -(action - target)^2. Episodes last 8 steps.
type ccShaped struct {
	step   int
	target float64
	rng    *rand.Rand
	obs    []float64
}

func (e *ccShaped) ObsSize() int   { return ccObsSize }
func (e *ccShaped) ActionDim() int { return 1 }

func (e *ccShaped) Reset(rng *rand.Rand) []float64 {
	e.rng, e.step = rng, 0
	return e.next()
}

func (e *ccShaped) Step(action []float64) ([]float64, float64, bool) {
	d := action[0] - e.target
	e.step++
	return e.next(), -d * d, e.step >= 8
}

func (e *ccShaped) next() []float64 {
	e.target = e.rng.Float64()*2 - 1
	e.obs = grow(e.obs, ccObsSize)
	for j := range e.obs {
		e.obs[j] = math.Sin(float64(j+1)*0.37*float64(e.step+1) + e.target)
	}
	return e.obs
}

func ccShapedVec(k int) ContinuousVecEnv {
	envs := make([]ContinuousEnv, k)
	for i := range envs {
		envs[i] = &ccShaped{}
	}
	return VecContinuous(envs...)
}

// TestGaussianUpdateWorkerCountInvariance trains the PPO agent at the CC
// shape on 800-transition batches (12 full minibatches of 64 and a ragged
// one of 32), with 64-row minibatches and with full-batch passes of 13
// shards, guard armed and not. One, two and eight update workers must give
// bit-equal UpdateStats, parameters, log-std and Adam moments (SaveState),
// and leave rng at the same next draw: the interleaved one-goroutine loop,
// the free-running lanes and the lanes meeting at the guard's barrier all
// take the same steps.
func TestGaussianUpdateWorkerCountInvariance(t *testing.T) {
	type result struct {
		stats []UpdateStats
		state []byte
		next  int64
	}
	for _, mb := range []int{64, 0} {
		for _, armed := range []bool{false, true} {
			t.Run(fmt.Sprintf("minibatch=%d/guard=%v", mb, armed), func(t *testing.T) {
				run := func(workers int) result {
					cfg := DefaultGaussianConfig(ccObsSize, 1)
					cfg.Minibatch = mb
					a, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(22)))
					if err != nil {
						t.Fatal(err)
					}
					a.UpdateWorkers = workers
					if armed {
						a.Guard = guard.New(guard.Config{})
					}
					rng := rand.New(rand.NewSource(77))
					var r result
					for i := 0; i < 3; i++ {
						_, s := a.TrainIterationVec(ccShapedVec(2), 800, rng)
						if n := len(a.merged.Transitions); n != 800 {
							t.Fatalf("batch of %d transitions, want 800", n)
						}
						r.stats = append(r.stats, s)
					}
					r.state = savedParams(t, a.SaveState)
					r.next = rng.Int63()
					return r
				}
				ref := run(1)
				for _, w := range []int{2, 8} {
					got := run(w)
					for i := range ref.stats {
						if got.stats[i] != ref.stats[i] {
							t.Fatalf("iter %d: UpdateStats diverge between 1 and %d workers:\n%+v\n%+v", i, w, ref.stats[i], got.stats[i])
						}
					}
					if !bytes.Equal(got.state, ref.state) {
						t.Fatalf("agent state diverges between 1 and %d workers", w)
					}
					if got.next != ref.next {
						t.Fatalf("rng stream diverges between 1 and %d workers", w)
					}
				}
			})
		}
	}
}

// TestDiscreteUpdateCachedMatchesRecomputed pins the rollout-cache fast path
// against the recompute path: updating from a Collect-built batch
// (cache attached) must produce the same floats as updating an identical
// agent from a hand-rebuilt batch with no cache.
func TestDiscreteUpdateCachedMatchesRecomputed(t *testing.T) {
	cfg := DefaultDiscreteConfig(3, 3)
	mk := func() *DiscreteAgent {
		a, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	aCached, aPlain := mk(), mk()

	batch := aCached.Collect(&bandit{nActions: 3}, 150, rand.New(rand.NewSource(5)))
	if batch.cacheOwner != aCached.policy {
		t.Fatal("Collect did not attach a rollout cache")
	}
	// Deep-copy the transitions into a cache-less batch for the plain agent.
	plain := &Batch{Episodes: batch.Episodes}
	for _, tr := range batch.Transitions {
		tr.Obs = append([]float64(nil), tr.Obs...)
		plain.Transitions = append(plain.Transitions, tr)
	}

	sc := aCached.Update(batch)
	sp := aPlain.Update(plain)
	if sc != sp {
		t.Fatalf("cached vs recomputed UpdateStats diverge:\n%+v\n%+v", sc, sp)
	}
	if !bytes.Equal(savedParams(t, aCached.Save), savedParams(t, aPlain.Save)) {
		t.Fatal("cached vs recomputed parameters diverge")
	}
}
