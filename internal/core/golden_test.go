package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// goldenRun pins a tiny end-to-end Trainer run: the checkpoint test-reward
// vector must be bit-identical across commits, worker counts, and race-mode
// runs. Kernel records which numeric path produced the numbers — the scalar
// and AVX2 kernels are each internally deterministic but differ from each
// other, so the comparison only applies when the paths match.
type goldenRun struct {
	Kernel  string    `json:"kernel"`
	Rewards []float64 `json:"rewards"`
}

// goldenStates pins the SHA-256 of each use case's final SaveAgentState
// bytes: networks, every optimizer moment and step counter, and (for CC)
// the log-std vector. Eval rewards come from greedy decisions that can
// absorb a last-bit drift; the state hash cannot.
type goldenStates struct {
	Kernel string            `json:"kernel"`
	SHA256 map[string]string `json:"state_sha256"`
}

const goldenStatePath = "testdata/golden_trainer_state.json"

// goldenTrainerCases are the three harnesses the golden run covers: ABR and
// LB train the discrete A2C agent, CC the Gaussian PPO agent.
var goldenTrainerCases = []struct {
	name       string
	rewardPath string
	harness    func() (Harness, error)
}{
	{"abr", "testdata/golden_abr_trainer.json", func() (Harness, error) {
		h, err := NewABRHarness(env.ABRSpace(env.RL1), rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, err
		}
		h.EnvsPerIter, h.StepsPerIter = 2, 80
		return h, nil
	}},
	{"cc", "testdata/golden_cc_trainer.json", func() (Harness, error) {
		h, err := NewCCHarness(env.CCSpace(env.RL1), rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, err
		}
		h.EnvsPerIter, h.StepsPerIter = 2, 80
		return h, nil
	}},
	{"lb", "testdata/golden_lb_trainer.json", func() (Harness, error) {
		h, err := NewLBHarness(env.LBSpace(env.RL1), rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, err
		}
		h.EnvsPerIter, h.StepsPerIter = 2, 80
		return h, nil
	}},
}

// TestGoldenTrainerDeterminism runs a fixed-seed miniature Genet curriculum
// on each real harness and compares the after-round evaluation rewards and
// the hash of the final agent state against the committed golden files,
// exactly. Any drift — a reordered reduction, an rng consumed in a new
// place, a changed default — fails here before it can silently change every
// experiment. Refresh intentionally with
//
//	go test ./internal/core/ -run TestGoldenTrainerDeterminism -update
func TestGoldenTrainerDeterminism(t *testing.T) {
	states := goldenStates{Kernel: nn.KernelName(), SHA256: map[string]string{}}
	var want goldenStates
	if !*updateGolden {
		readGolden(t, goldenStatePath, &want)
	}
	for _, tc := range goldenTrainerCases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := tc.harness()
			if err != nil {
				t.Fatal(err)
			}
			rewards, state := goldenTrainerRun(t, h)
			got := goldenRun{Kernel: nn.KernelName(), Rewards: rewards}
			sum := sha256.Sum256(state)
			states.SHA256[tc.name] = hex.EncodeToString(sum[:])
			if *updateGolden {
				writeGolden(t, tc.rewardPath, got)
				return
			}

			var wantRun goldenRun
			readGolden(t, tc.rewardPath, &wantRun)
			if wantRun.Kernel != got.Kernel {
				t.Skipf("golden recorded on %q kernels, this machine runs %q", wantRun.Kernel, got.Kernel)
			}
			if len(got.Rewards) != len(wantRun.Rewards) {
				t.Fatalf("checkpoint count = %d, golden has %d", len(got.Rewards), len(wantRun.Rewards))
			}
			for i := range wantRun.Rewards {
				if got.Rewards[i] != wantRun.Rewards[i] {
					t.Fatalf("checkpoint %d: reward = %.17g, golden %.17g (bit-exact determinism broken)",
						i, got.Rewards[i], wantRun.Rewards[i])
				}
			}
			if want.Kernel != got.Kernel {
				t.Skipf("state golden recorded on %q kernels, this machine runs %q", want.Kernel, got.Kernel)
			}
			if w := want.SHA256[tc.name]; w != states.SHA256[tc.name] {
				t.Fatalf("final agent state sha256 = %s, golden %s (bit-exact determinism broken)",
					states.SHA256[tc.name], w)
			}
		})
	}
	if *updateGolden {
		writeGolden(t, goldenStatePath, states)
	}
}

// goldenTrainerRun trains h through a two-round Genet curriculum and returns
// the evaluation reward after each round and the final agent state bytes.
func goldenTrainerRun(t *testing.T, h Harness) ([]float64, []byte) {
	t.Helper()
	evalCfg := h.Space().Default(nil)
	var rewards []float64
	tr := NewTrainer(h, Options{
		Rounds:        2,
		ItersPerRound: 2,
		BOSteps:       3,
		EnvsPerEval:   1,
		WarmupIters:   2,
		AfterRound: func(round int) {
			// Fresh rng per checkpoint: the evaluation must not perturb the
			// training stream it is observing.
			ev := h.Eval(evalCfg, 2, 0, rand.New(rand.NewSource(int64(100+round))))
			rewards = append(rewards, ev.RL)
		},
	})
	if _, err := tr.Run(rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.(AgentStateHarness).SaveAgentState(&buf); err != nil {
		t.Fatal(err)
	}
	return rewards, buf.Bytes()
}

func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
}

func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden updated: %s", path)
}
