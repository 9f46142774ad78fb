package rl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/nn"
)

// guardAgent is one policy head behind the calls the table-driven guard
// tests need: its runtime attachments, a TrainIterationVec over k fresh toy
// envs and the same iteration over the scalar oracle (oracle_test.go), a
// full state snapshot, and a finiteness check of its networks.
type guardAgent struct {
	rt     *Runtime
	train  func(k, steps int, rng *rand.Rand) UpdateStats
	oracle func(k, steps int, rng *rand.Rand)
	state  func(t *testing.T) []byte
	finite func() bool
}

// guardHeads builds each head's guardAgent from rng: the categorical head
// on contextual bandits, the Gaussian head on tracking tasks.
var guardHeads = []struct {
	name string
	mk   func(t *testing.T, rng *rand.Rand) guardAgent
}{
	{"discrete", func(t *testing.T, rng *rand.Rand) guardAgent {
		a, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
		if err != nil {
			t.Fatal(err)
		}
		return guardAgent{
			rt: &a.Runtime,
			train: func(k, steps int, rng *rand.Rand) UpdateStats {
				_, s := a.TrainIterationVec(banditVec(k), steps, rng)
				return s
			},
			oracle: func(k, steps int, rng *rand.Rand) {
				envs := make([]scalarEnv[int], k)
				for i := range envs {
					envs[i] = &bandit{nActions: 3}
				}
				oracleIteration(&a.agent, envs, steps, rng)
			},
			state:  func(t *testing.T) []byte { return stateBytes(t, a.SaveState) },
			finite: func() bool { return a.policy.AllFinite() && a.value.AllFinite() },
		}
	}},
	{"gaussian", func(t *testing.T, rng *rand.Rand) guardAgent {
		a, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
		if err != nil {
			t.Fatal(err)
		}
		return guardAgent{
			rt: &a.Runtime,
			train: func(k, steps int, rng *rand.Rand) UpdateStats {
				_, s := a.TrainIterationVec(trackerVec(k), steps, rng)
				return s
			},
			oracle: func(k, steps int, rng *rand.Rand) {
				envs := make([]scalarEnv[[]float64], k)
				for i := range envs {
					envs[i] = &tracker{}
				}
				oracleIteration(&a.agent, envs, steps, rng)
			},
			state: func(t *testing.T) []byte { return stateBytes(t, a.SaveState) },
			finite: func() bool {
				return a.policy.AllFinite() && a.value.AllFinite() && allFinite(a.logStd)
			},
		}
	}},
}

// stateBytes snapshots the full agent state (nets + optimizer moments)
// for bit-identity comparisons.
func stateBytes(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGuardEnabledIsBitIdenticalWithoutFaults(t *testing.T) {
	// An armed guard observing a healthy run must be a pure observer:
	// same seed, same floats, guard on or off — although the guard moves
	// collection onto the scalar fallback loop.
	for _, h := range guardHeads {
		t.Run(h.name, func(t *testing.T) {
			run := func(g *guard.Guard) []byte {
				rng := rand.New(rand.NewSource(7))
				a := h.mk(t, rng)
				a.rt.Guard = g
				for i := 0; i < 20; i++ {
					a.train(2, 64, rng)
				}
				return a.state(t)
			}
			plain := run(nil)
			guarded := run(guard.New(guard.Config{RollbackAfter: 3, QuarantineAfter: 3}))
			if !bytes.Equal(plain, guarded) {
				t.Fatal("guard-enabled zero-fault run diverged from unguarded run")
			}
		})
	}
}

func TestGradPoisonSkipsUpdateAndPreservesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(guard.Config{})
	agent.Guard = g
	in := faults.New(1)
	in.Enable(faults.GradPoison, 1) // poison every apply
	agent.Faults = in

	before := stateBytes(t, agent.SaveState)
	_, stats := agent.TrainIterationVec(banditVec(2), 64, rng)
	if !stats.Skipped {
		t.Fatal("poisoned update not reported as skipped")
	}
	after := stateBytes(t, agent.SaveState)
	if !bytes.Equal(before, after) {
		t.Fatal("skipped update still mutated agent state")
	}
	if st := g.Snapshot(); st.NonFinite != 1 || st.Skipped != 1 {
		t.Fatalf("guard stats %+v, want one non-finite skip", st)
	}
	if in.Fired(faults.GradPoison) != 1 {
		t.Fatalf("injector fired %d, want 1", in.Fired(faults.GradPoison))
	}
}

func TestEnvStepPanicContainedAndSurvivorsTrain(t *testing.T) {
	for _, h := range guardHeads {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			a := h.mk(t, rng)
			g := guard.New(guard.Config{QuarantineAfter: 1})
			a.rt.Guard = g
			in := faults.New(2)
			in.Enable(faults.EnvStepPanic, 10) // most rollouts die quickly
			a.rt.Faults = in

			for i := 0; i < 5; i++ {
				a.train(4, 64, rng)
			}
			st := g.Snapshot()
			if st.RolloutFaults == 0 {
				t.Fatal("no rollout faults recorded despite every-10-steps panics")
			}
			if st.Updates == 0 {
				t.Fatal("the surviving rollouts never reached an update")
			}
			if in.Fired(faults.EnvStepPanic) == 0 {
				t.Fatal("injector never fired")
			}
			if !g.QuarantineNeeded() {
				t.Fatal("quarantine not demanded after consecutive faulty rollouts")
			}
		})
	}
}

func TestRolloutPanicWithoutGuardStillCrashes(t *testing.T) {
	// Containment is opt-in: with no guard armed, an env panic must
	// propagate (a genuine bug should never be silently swallowed).
	rng := rand.New(rand.NewSource(5))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(2)
	in.Enable(faults.EnvStepPanic, 1)
	agent.Faults = in
	defer func() {
		if recover() == nil {
			t.Fatal("env panic did not propagate without a guard")
		}
	}()
	agent.TrainIterationVec(banditVec(2), 64, rng)
}

func TestTraceCorruptionSurfacesAsSkippedUpdate(t *testing.T) {
	// A NaN observation flows through the forward pass into the loss and
	// gradients; the pre-apply scan must catch it before the Adam step.
	for _, h := range guardHeads {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			a := h.mk(t, rng)
			a.rt.Guard = guard.New(guard.Config{})

			// Clean phase: no injector, the agent trains normally.
			before := a.state(t)
			for i := 0; i < 3; i++ {
				a.train(2, 64, rng)
			}
			if bytes.Equal(before, a.state(t)) {
				t.Fatal("agent did not train during the clean phase")
			}

			// Corrupt phase: with NaN observations every ~5 steps, every
			// batch is poisoned and the pre-apply scan must veto every
			// optimizer step.
			in := faults.New(4)
			in.Enable(faults.TraceCorrupt, 5)
			a.rt.Faults = in
			var sawSkip bool
			for i := 0; i < 3; i++ {
				sawSkip = a.train(2, 64, rng).Skipped || sawSkip
			}
			if in.Fired(faults.TraceCorrupt) == 0 {
				t.Fatal("trace corruption never fired")
			}
			if !sawSkip {
				t.Fatal("corrupted observations never produced a skipped update")
			}
			if !a.finite() {
				t.Fatal("guard let NaN reach the parameters")
			}
		})
	}
}

func TestGaussianGradPoisonSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultGaussianConfig(4, 2)
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(guard.Config{})
	agent.Guard = g
	in := faults.New(6)
	in.Enable(faults.GradPoison, 1)
	agent.Faults = in

	_, stats := agent.TrainIterationVec(ccToyVec(2), 64, rng)
	if !stats.Skipped {
		t.Fatal("poisoned PPO update not reported as skipped")
	}
	if math.IsNaN(stats.PolicyLoss) || math.IsNaN(stats.GradNorm) {
		t.Fatalf("skipped minibatches leaked NaN into reported stats: %+v", stats)
	}
	if st := g.Snapshot(); st.NonFinite == 0 {
		t.Fatalf("guard stats %+v, want non-finite skips", st)
	}

	t.Run("one minibatch on two lanes", func(t *testing.T) {
		// 800 transitions in 64-row minibatches over 4 epochs: 52 steps.
		const steps = 52
		// Pick an injector that poisons exactly one step k of the update,
		// not the first or the last, by replaying its schedule.
		seed, k := int64(0), -1
		for k < 0 {
			seed++
			ref := faults.New(seed)
			ref.Enable(faults.GradPoison, steps)
			var fired []int
			for m := 0; m < steps; m++ {
				if ref.Fire(faults.GradPoison) {
					fired = append(fired, m)
				}
			}
			if len(fired) == 1 && fired[0] > 0 && fired[0] < steps-1 {
				k = fired[0]
			}
		}
		run := func(workers int) (*GaussianAgent, UpdateStats, *guard.Guard) {
			a, err := NewGaussianAgent(DefaultGaussianConfig(ccObsSize, 1), rand.New(rand.NewSource(12)))
			if err != nil {
				t.Fatal(err)
			}
			a.UpdateWorkers = workers
			g := guard.New(guard.Config{})
			a.Guard = g
			in := faults.New(seed)
			in.Enable(faults.GradPoison, steps)
			a.Faults = in
			_, s := a.TrainIterationVec(ccShapedVec(2), 800, rand.New(rand.NewSource(13)))
			if in.Calls(faults.GradPoison) != steps || in.Fired(faults.GradPoison) != 1 {
				t.Fatalf("%d calls, %d fired; want %d calls, 1 fired", in.Calls(faults.GradPoison), in.Fired(faults.GradPoison), steps)
			}
			return a, s, g
		}
		a, s, g := run(2)
		if !s.Skipped || math.IsNaN(s.PolicyLoss) || math.IsNaN(s.ValueLoss) || math.IsNaN(s.GradNorm) {
			t.Fatalf("poisoned step %d: stats %+v", k, s)
		}
		if st := g.Snapshot(); st.Skipped != 1 || st.NonFinite != 1 {
			t.Fatalf("guard stats %+v, want one non-finite skip", st)
		}
		// Both lanes skipped step k and only it.
		if p, v := a.pOpt.Wire().T, a.vOpt.Wire().T; p != steps-1 || v != steps-1 || a.sOpt.T != steps-1 {
			t.Fatalf("optimizer steps policy %d value %d log-std %d, want %d each", p, v, a.sOpt.T, steps-1)
		}
		if !a.policy.AllFinite() || !a.value.AllFinite() || !allFinite(a.logStd) {
			t.Fatal("poison reached the parameters")
		}
		// The lanes meeting at the barrier take exactly the steps of the
		// one-goroutine loop.
		ref, rs, _ := run(1)
		if rs != s || !bytes.Equal(stateBytes(t, ref.SaveState), stateBytes(t, a.SaveState)) {
			t.Fatal("two-lane poisoned update diverges from the one-worker update")
		}
	})
}

// ccToy is a minimal continuous env: reward is the negative squared
// distance of the action from a fixed target.
type ccToy struct {
	dim, adim int
	step      int
}

func (e *ccToy) ObsSize() int   { return e.dim }
func (e *ccToy) ActionDim() int { return e.adim }
func (e *ccToy) Reset(rng *rand.Rand) []float64 {
	e.step = 0
	return make([]float64, e.dim)
}
func (e *ccToy) Step(action []float64) ([]float64, float64, bool) {
	r := 0.0
	for _, a := range action {
		r -= (a - 0.5) * (a - 0.5)
	}
	e.step++
	return make([]float64, e.dim), r, e.step >= 8
}

// ccToyVec returns k fresh ccToy envs (4-dim obs, 2-dim actions) as one
// vectorized env.
func ccToyVec(k int) ContinuousVecEnv {
	envs := make([]ContinuousEnv, k)
	for i := range envs {
		envs[i] = &ccToy{dim: 4, adim: 2}
	}
	return VecContinuous(envs...)
}

// TestGaussianLanePanicPropagates pins that a panic in the policy lane of a
// two-lane update reaches the caller, with and without the guard's barrier,
// instead of leaving the value lane blocked on it forever.
func TestGaussianLanePanicPropagates(t *testing.T) {
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("guard=%v", armed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			a, err := NewGaussianAgent(DefaultGaussianConfig(ccObsSize, 1), rng)
			if err != nil {
				t.Fatal(err)
			}
			a.UpdateWorkers = 2
			if armed {
				a.Guard = guard.New(guard.Config{})
			}
			b := a.Collect(&ccShaped{}, 200, rng)
			b.Transitions[70].ActionC = nil // the policy loss indexes the action
			done := make(chan any)
			go func() {
				defer func() { done <- recover() }()
				a.Update(b, rng)
			}()
			select {
			case r := <-done:
				if r == nil {
					t.Fatal("update over a malformed batch did not panic")
				}
			case <-time.After(time.Minute):
				t.Fatal("update deadlocked after a lane panicked")
			}
		})
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// goldenArmed pins, per head, the SHA-256 of the full agent state and the
// guard's counters after armedRun.
type goldenArmed struct {
	Kernel string            `json:"kernel"`
	SHA256 map[string]string `json:"state_sha256"`
	Guard  map[string]string `json:"guard"`
}

const goldenArmedPath = "testdata/golden_armed_state.json"

// armedRun trains one head for a few iterations with the guard, EnvStepPanic
// and TraceCorrupt armed: some slots die mid-rollout and are contained, some
// observations are poisoned and their updates vetoed, and the rest train.
func armedRun(t *testing.T, mk func(t *testing.T, rng *rand.Rand) guardAgent) ([]byte, guard.Stats) {
	rng := rand.New(rand.NewSource(17))
	a := mk(t, rng)
	g, in := armRollouts(a.rt)
	for i := 0; i < 8; i++ {
		a.train(4, 160, rng)
	}
	if in.Fired(faults.EnvStepPanic) == 0 || in.Fired(faults.TraceCorrupt) == 0 {
		t.Fatalf("armed run left a site idle: %s", in)
	}
	return a.state(t), g.Snapshot()
}

// armRollouts attaches a fresh guard and an injector with both rollout
// sites armed to rt. A slot's two streams share one key but hash their
// site too, so each site fires on its own schedule.
func armRollouts(rt *Runtime) (*guard.Guard, *faults.Injector) {
	rt.Guard = guard.New(guard.Config{QuarantineAfter: 3})
	rt.Faults = faults.New(8)
	rt.Faults.Enable(faults.EnvStepPanic, 150)
	rt.Faults.Enable(faults.TraceCorrupt, 60)
	return rt.Guard, rt.Faults
}

// TestArmedTrainIterationGolden compares both heads' armed runs against the
// committed golden, exactly. Refresh intentionally with
//
//	go test ./internal/rl/ -run TestArmedTrainIterationGolden -update
func TestArmedTrainIterationGolden(t *testing.T) {
	got := goldenArmed{Kernel: nn.KernelName(), SHA256: map[string]string{}, Guard: map[string]string{}}
	for _, h := range guardHeads {
		state, st := armedRun(t, h.mk)
		sum := sha256.Sum256(state)
		got.SHA256[h.name] = hex.EncodeToString(sum[:])
		got.Guard[h.name] = st.String()
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenArmedPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArmedPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenArmedPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want goldenArmed
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Kernel != got.Kernel {
		t.Skipf("golden recorded on %q kernels, this machine runs %q", want.Kernel, got.Kernel)
	}
	for _, h := range guardHeads {
		if got.Guard[h.name] != want.Guard[h.name] {
			t.Errorf("%s: guard stats = %s, golden %s", h.name, got.Guard[h.name], want.Guard[h.name])
		}
		if got.SHA256[h.name] != want.SHA256[h.name] {
			t.Errorf("%s: agent state sha256 = %s, golden %s (bit-exact determinism broken)", h.name, got.SHA256[h.name], want.SHA256[h.name])
		}
	}
}
