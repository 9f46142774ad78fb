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
// full state snapshot, a finiteness check of its networks, the optimizer
// steps of its last update and the step counts of its optimizers, and the
// stats an update reports when the guard vetoes every step.
type guardAgent struct {
	rt       *Runtime
	train    func(k, steps int, rng *rand.Rand) UpdateStats
	oracle   func(k, steps int, rng *rand.Rand)
	state    func(t *testing.T) []byte
	finite   func() bool
	steps    func() int
	optSteps func() []int
	vetoed   func() UpdateStats
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
			state:    func(t *testing.T) []byte { return stateBytes(t, a.SaveState) },
			finite:   func() bool { return a.policy.AllFinite() && a.value.AllFinite() },
			steps:    func() int { return 1 },
			optSteps: func() []int { return []int{a.pOpt.Wire().T, a.vOpt.Wire().T} },
			vetoed:   func() UpdateStats { return UpdateStats{Skipped: true} },
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
			steps: func() int {
				mb := a.passRows(len(a.merged.Transitions))
				return a.cfg.Epochs * ((len(a.merged.Transitions) + mb - 1) / mb)
			},
			optSteps: func() []int { return []int{a.pOpt.Wire().T, a.vOpt.Wire().T, a.sOpt.T} },
			vetoed: func() UpdateStats {
				return UpdateStats{Skipped: true, Entropy: gaussianEntropy(a.Std())}
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

// TestGradPoisonSkipsUpdateAndPreservesParams pins the one veto rule on
// both heads, at one and two update workers. With every apply poisoned the
// guard vetoes every step: the update reports Skipped with its stats rolled
// back (the Gaussian head still adds the entropy of its std), and the agent
// state is untouched. With exactly one step of a three-update run poisoned,
// neither the first nor the last, both lanes skip that step and only it,
// no NaN reaches the parameters or the stats, and two lanes meeting at the
// barrier end in the one-worker state.
func TestGradPoisonSkipsUpdateAndPreservesParams(t *testing.T) {
	for _, h := range guardHeads {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", h.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				a := h.mk(t, rng)
				a.rt.UpdateWorkers = workers
				g := guard.New(guard.Config{})
				a.rt.Guard = g
				in := faults.New(1)
				in.Enable(faults.GradPoison, 1) // poison every apply
				a.rt.Faults = in

				before := a.state(t)
				if s, want := a.train(2, 64, rng), a.vetoed(); s != want {
					t.Fatalf("poisoned update reported %+v, want the rolled-back %+v", s, want)
				}
				if !bytes.Equal(before, a.state(t)) {
					t.Fatal("skipped update still mutated agent state")
				}
				steps := a.steps()
				if st := g.Snapshot(); st.Updates != steps || st.NonFinite != steps || st.Skipped != steps {
					t.Fatalf("guard stats %+v, want %d non-finite skips", st, steps)
				}
				if in.Calls(faults.GradPoison) != uint64(steps) || in.Fired(faults.GradPoison) != uint64(steps) {
					t.Fatalf("injector %d calls, %d fired; want %d each", in.Calls(faults.GradPoison), in.Fired(faults.GradPoison), steps)
				}
			})
		}
		t.Run(h.name+"/one step", func(t *testing.T) { poisonOneStep(t, h.mk) })
	}
}

// poisonOneStep trains three 200-transition updates with the GradPoison
// site firing on exactly one optimizer step k, 0 < k < last, at one and two
// update workers.
func poisonOneStep(t *testing.T, mk func(t *testing.T, rng *rand.Rand) guardAgent) {
	const iters, n = 3, 200
	steps := 0
	dry := mk(t, rand.New(rand.NewSource(12)))
	for i := 0; i < iters; i++ {
		dry.train(2, n, rand.New(rand.NewSource(13)))
		steps += dry.steps()
	}
	// Pick an injector that poisons exactly one step k of the run, not the
	// first or the last, by replaying its schedule.
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
	run := func(workers int) (guardAgent, []UpdateStats, *guard.Guard) {
		a := mk(t, rand.New(rand.NewSource(12)))
		a.rt.UpdateWorkers = workers
		g := guard.New(guard.Config{})
		a.rt.Guard = g
		in := faults.New(seed)
		in.Enable(faults.GradPoison, steps)
		a.rt.Faults = in
		rng := rand.New(rand.NewSource(13))
		var stats []UpdateStats
		for i := 0; i < iters; i++ {
			stats = append(stats, a.train(2, n, rng))
		}
		if in.Calls(faults.GradPoison) != uint64(steps) || in.Fired(faults.GradPoison) != 1 {
			t.Fatalf("%d calls, %d fired; want %d calls, 1 fired", in.Calls(faults.GradPoison), in.Fired(faults.GradPoison), steps)
		}
		return a, stats, g
	}
	a, stats, g := run(2)
	skipped := 0
	for i, s := range stats {
		if s.Skipped {
			skipped++
		}
		if math.IsNaN(s.PolicyLoss) || math.IsNaN(s.ValueLoss) || math.IsNaN(s.Entropy) || math.IsNaN(s.GradNorm) {
			t.Fatalf("poisoned step %d leaked NaN into update %d's stats: %+v", k, i, s)
		}
	}
	if skipped != 1 {
		t.Fatalf("poisoned step %d: %d updates report a skip, want 1", k, skipped)
	}
	if st := g.Snapshot(); st.Skipped != 1 || st.NonFinite != 1 {
		t.Fatalf("guard stats %+v, want one non-finite skip", st)
	}
	// Every optimizer skipped step k and only it.
	for i, got := range a.optSteps() {
		if got != steps-1 {
			t.Fatalf("optimizer %d took %d steps, want %d", i, got, steps-1)
		}
	}
	if !a.finite() {
		t.Fatal("poison reached the parameters")
	}
	// The lanes meeting at the barrier take exactly the steps of the
	// one-goroutine loop.
	ref, refStats, _ := run(1)
	for i := range stats {
		if refStats[i] != stats[i] {
			t.Fatalf("update %d: two-lane stats %+v, one-worker %+v", i, stats[i], refStats[i])
		}
	}
	if !bytes.Equal(ref.state(t), a.state(t)) {
		t.Fatal("two-lane poisoned run diverges from the one-worker run")
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
