package rl

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
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

func TestGaussianUpdateWorkerCountInvariance(t *testing.T) {
	cfg := DefaultGaussianConfig(1, 1)
	a1, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	a8, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	a1.UpdateWorkers = 1
	a8.UpdateWorkers = 8

	rng1 := rand.New(rand.NewSource(77))
	rng8 := rand.New(rand.NewSource(77))
	for i := 0; i < 5; i++ {
		_, s1 := a1.TrainIterationVec(trackerVec(2), 100, rng1)
		_, s8 := a8.TrainIterationVec(trackerVec(2), 100, rng8)
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
