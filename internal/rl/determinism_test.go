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

// The update is required to be bit-deterministic in the worker count:
// each lane reduces a fixed 64-transition shard partition in index order,
// so 1 worker and N workers must produce identical floats (see
// updateShardSize). TestUpdateWorkerCountInvariance trains identically
// seeded agents that differ only in UpdateWorkers and demands bit-equal
// UpdateStats and bit-equal serialized state after several iterations.
// Batches span multiple shards (>64 transitions) so the reduction order is
// actually exercised.

func savedParams(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// updateAgent is one head behind the calls TestUpdateWorkerCountInvariance
// needs: its runtime attachments, one training iteration on rng, its full
// state stream, and the merged batch of its last iteration.
type updateAgent struct {
	rt     *Runtime
	train  func(rng *rand.Rand) UpdateStats
	save   func(io.Writer) error
	merged *Batch
}

// TestUpdateWorkerCountInvariance trains each head, guard armed and not, at
// one, two and eight update workers. They must give bit-equal UpdateStats
// and agent state (parameters, log-std and Adam moments: SaveState), and
// leave rng at the same next draw: the interleaved one-goroutine loop, the
// free-running lanes and the lanes meeting at the guard's barrier all take
// the same steps. The A2C head updates 200-transition bandit batches in one
// step of four shards. The PPO head runs at the CC shape on
// 800-transition batches, in 64-row minibatches (12 full and a ragged one
// of 32) and in full-batch passes of 13 shards.
func TestUpdateWorkerCountInvariance(t *testing.T) {
	type head struct {
		name string
		n    int // transitions per iteration
		mk   func(t *testing.T) updateAgent
	}
	heads := []head{{"discrete", 200, func(t *testing.T) updateAgent {
		a, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		train := func(rng *rand.Rand) UpdateStats {
			_, s := a.TrainIterationVec(banditVec(2), 200, rng)
			return s
		}
		return updateAgent{&a.Runtime, train, a.SaveState, &a.merged}
	}}}
	for _, mb := range []int{64, 0} {
		heads = append(heads, head{fmt.Sprintf("gaussian/mb=%d", mb), 800, func(t *testing.T) updateAgent {
			cfg := DefaultGaussianConfig(ccObsSize, 1)
			cfg.Minibatch = mb
			a, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(22)))
			if err != nil {
				t.Fatal(err)
			}
			train := func(rng *rand.Rand) UpdateStats {
				_, s := a.TrainIterationVec(ccShapedVec(2), 800, rng)
				return s
			}
			return updateAgent{&a.Runtime, train, a.SaveState, &a.merged}
		}})
	}
	type result struct {
		stats []UpdateStats
		state []byte
		next  int64
	}
	for _, h := range heads {
		for _, armed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/guard=%v", h.name, armed), func(t *testing.T) {
				run := func(workers int) result {
					a := h.mk(t)
					a.rt.UpdateWorkers = workers
					if armed {
						a.rt.Guard = guard.New(guard.Config{})
					}
					rng := rand.New(rand.NewSource(77))
					var r result
					for i := 0; i < 4; i++ {
						r.stats = append(r.stats, a.train(rng))
						if n := len(a.merged.Transitions); n != h.n {
							t.Fatalf("batch of %d transitions, want %d", n, h.n)
						}
					}
					r.state = savedParams(t, a.save)
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
