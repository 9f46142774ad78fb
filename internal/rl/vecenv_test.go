package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The vectorized rollout engine's determinism contract: CollectVec over a
// vectorized environment is bit-identical, per slot, to the sequential
// scalar loop (oracleCollect, oracle_test.go) over the equivalent scalar
// environment with the same seed — and therefore TrainIterationVec is
// bit-identical to the same iteration spelled out over the scalar loop.
// These tests pin the contract on the generic scalar-wrapping adapters with
// the toy envs; the abr, cc, and lb packages pin CollectVec against Collect
// over their RLEnv slot views.

func sameTransitions(t *testing.T, tag string, seq, vec []Transition) {
	t.Helper()
	if len(seq) != len(vec) {
		t.Fatalf("%s: %d sequential vs %d vectorized transitions", tag, len(seq), len(vec))
	}
	for j := range seq {
		s, v := seq[j], vec[j]
		if !bytes.Equal(floatBits(s.Obs), floatBits(v.Obs)) {
			t.Fatalf("%s step %d: obs diverge\nseq: %v\nvec: %v", tag, j, s.Obs, v.Obs)
		}
		if s.Action != v.Action {
			t.Fatalf("%s step %d: action %d vs %d", tag, j, s.Action, v.Action)
		}
		if !bytes.Equal(floatBits(s.ActionC), floatBits(v.ActionC)) {
			t.Fatalf("%s step %d: continuous action diverges", tag, j)
		}
		if s.LogProb != v.LogProb || s.Reward != v.Reward || s.Value != v.Value ||
			s.Done != v.Done || s.Truncate != v.Truncate || s.LastVal != v.LastVal {
			t.Fatalf("%s step %d: transitions diverge\nseq: %+v\nvec: %+v", tag, j, s, v)
		}
	}
}

func floatBits(xs []float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(b>>s))
		}
	}
	return out
}

func TestDiscreteCollectVecMatchesSequential(t *testing.T) {
	for _, width := range []int{1, 2, 5} {
		cfg := DefaultDiscreteConfig(3, 3)
		agent, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]int64, width)
		for i := range seeds {
			seeds[i] = int64(1000 + 7*i)
		}

		seq := make([]*Batch, width)
		for i := range seq {
			seq[i] = oracleCollect(&agent.agent, &bandit{nActions: 3}, 40, rand.New(rand.NewSource(seeds[i])))
		}

		envs := make([]DiscreteEnv, width)
		for i := range envs {
			envs[i] = &bandit{nActions: 3}
		}
		vec := agent.CollectVec(VecDiscrete(envs...), 40, seeds)

		for i := range seq {
			if seq[i].Episodes != vec[i].Episodes || seq[i].TotalReward != vec[i].TotalReward {
				t.Fatalf("width %d slot %d: batch header diverges", width, i)
			}
			sameTransitions(t, "discrete", seq[i].Transitions, vec[i].Transitions)
		}
	}
}

func TestGaussianCollectVecMatchesSequential(t *testing.T) {
	for _, width := range []int{1, 3} {
		cfg := DefaultGaussianConfig(1, 1)
		agent, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]int64, width)
		for i := range seeds {
			seeds[i] = int64(2000 + 11*i)
		}

		seq := make([]*Batch, width)
		for i := range seq {
			seq[i] = oracleCollect(&agent.agent, &tracker{}, 40, rand.New(rand.NewSource(seeds[i])))
		}

		envs := make([]ContinuousEnv, width)
		for i := range envs {
			envs[i] = &tracker{}
		}
		vec := agent.CollectVec(VecContinuous(envs...), 40, seeds)

		for i := range seq {
			sameTransitions(t, "gaussian", seq[i].Transitions, vec[i].Transitions)
		}
	}
}

// referenceIteration is one train iteration spelled out over the scalar
// loop: per-slot seeds drawn from rng in slot order, one oracleCollect per
// environment with its own seeded rng, batches merged in slot order, and
// one update drawing from rng after the seeds.
func referenceIteration[A any](c *agent[A], envs []scalarEnv[A], totalSteps int, rng *rand.Rand) (float64, UpdateStats) {
	seeds := make([]int64, len(envs))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	merged := &Batch{}
	for i, e := range envs {
		b := oracleCollect(c, e, totalSteps/len(envs), rand.New(rand.NewSource(seeds[i])))
		merged.Transitions = append(merged.Transitions, b.Transitions...)
		merged.Episodes += b.Episodes
		merged.TotalReward += b.TotalReward
	}
	return merged.MeanEpisodeReward(), c.head.update(merged, rng)
}

// TestTrainIterationVecMatchesTrainIteration trains two identically-seeded
// agents — one through referenceIteration, one through TrainIterationVec's
// lockstep engine — and demands bit-equal results and serialized
// parameters.
func TestTrainIterationVecMatchesTrainIteration(t *testing.T) {
	cfg := DefaultDiscreteConfig(3, 3)
	aSeq, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	aVec, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	envs := []scalarEnv[int]{&bandit{nActions: 3}, &bandit{nActions: 3}, &bandit{nActions: 3}}
	venv := banditVec(3)
	rngSeq := rand.New(rand.NewSource(55))
	rngVec := rand.New(rand.NewSource(55))
	for i := 0; i < 5; i++ {
		rSeq, sSeq := referenceIteration(&aSeq.agent, envs, 120, rngSeq)
		rVec, sVec := aVec.TrainIterationVec(venv, 120, rngVec)
		if rSeq != rVec || sSeq != sVec {
			t.Fatalf("iter %d: results diverge\nseq: %v %+v\nvec: %v %+v", i, rSeq, sSeq, rVec, sVec)
		}
	}
	if !bytes.Equal(savedParams(t, aSeq.Save), savedParams(t, aVec.Save)) {
		t.Fatal("serialized parameters diverge between scalar and vectorized training")
	}
}

func TestGaussianTrainIterationVecMatchesTrainIteration(t *testing.T) {
	cfg := DefaultGaussianConfig(1, 1)
	aSeq, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	aVec, err := NewGaussianAgent(cfg, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	envs := []scalarEnv[[]float64]{&tracker{}, &tracker{}}
	venv := trackerVec(2)
	rngSeq := rand.New(rand.NewSource(57))
	rngVec := rand.New(rand.NewSource(57))
	for i := 0; i < 4; i++ {
		rSeq, sSeq := referenceIteration(&aSeq.agent, envs, 100, rngSeq)
		rVec, sVec := aVec.TrainIterationVec(venv, 100, rngVec)
		if rSeq != rVec || sSeq != sVec {
			t.Fatalf("iter %d: results diverge\nseq: %v %+v\nvec: %v %+v", i, rSeq, sSeq, rVec, sVec)
		}
	}
	if !bytes.Equal(savedParams(t, aSeq.Save), savedParams(t, aVec.Save)) {
		t.Fatal("serialized parameters diverge between scalar and vectorized training")
	}
}

// TestTrainIterationVecWorkerInvariance pins the PR 1 worker-count contract
// on the vectorized path: RolloutWorkers must not change a single bit.
func TestTrainIterationVecWorkerInvariance(t *testing.T) {
	params := make([][]byte, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		cfg := DefaultDiscreteConfig(3, 3)
		agent, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(47)))
		if err != nil {
			t.Fatal(err)
		}
		agent.RolloutWorkers = workers
		venv := VecDiscrete(
			&bandit{nActions: 3}, &bandit{nActions: 3},
			&bandit{nActions: 3}, &bandit{nActions: 3})
		rng := rand.New(rand.NewSource(59))
		for i := 0; i < 4; i++ {
			agent.TrainIterationVec(venv, 160, rng)
		}
		params = append(params, savedParams(t, agent.Save))
	}
	for i := 1; i < len(params); i++ {
		if !bytes.Equal(params[0], params[i]) {
			t.Fatalf("parameters diverge between RolloutWorkers=1 and %d", []int{1, 2, 4}[i])
		}
	}
}
