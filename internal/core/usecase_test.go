package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/env"
)

func TestLookupUseCase(t *testing.T) {
	for _, uc := range UseCases {
		for _, name := range []string{uc.Name, strings.ToUpper(uc.Name)} {
			got, err := LookupUseCase(name)
			if err != nil || got != uc {
				t.Fatalf("LookupUseCase(%q) = %v, %v; want %s", name, got, err, uc.Name)
			}
		}
	}
	_, err := LookupUseCase("routing")
	if err == nil || err.Error() != `unknown use case "routing" (want abr|cc|lb)` {
		t.Fatalf("unknown use case error = %v", err)
	}
}

// TestUseCaseTable checks each row against the code it describes: the
// harness it builds, the model.bin it saves and loads, and the scalar
// environment and fallback serving steps.
func TestUseCaseTable(t *testing.T) {
	for _, uc := range UseCases {
		t.Run(uc.Name, func(t *testing.T) {
			if (uc.Discrete == nil) == (uc.Gaussian == nil) {
				t.Fatal("want exactly one of Discrete and Gaussian")
			}
			if (uc.NewDiscreteEnv == nil) != (uc.Discrete == nil) || (uc.NewContinuousEnv == nil) != (uc.Gaussian == nil) {
				t.Fatal("environment constructor does not match the agent's action space")
			}

			h, err := uc.NewHarness(env.RL1, "", 0, 0, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if steps := iterSize(h)[1]; steps != uc.StepsPerIter {
				t.Fatalf("default steps per iteration %d, want %d", steps, uc.StepsPerIter)
			}
			sized, err := uc.NewHarness(env.RL1, uc.Baselines[len(uc.Baselines)-1], 3, 50, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if got := iterSize(sized); got != [2]int{3, 50} {
				t.Fatalf("sized harness iteration size %v, want [3 50]", got)
			}
			if _, err := uc.NewHarness(env.RL1, "oracle", 0, 0, rand.New(rand.NewSource(1))); err == nil {
				t.Fatal("unknown baseline accepted")
			}

			var model bytes.Buffer
			if err := SaveModel(h, &model); err != nil {
				t.Fatal(err)
			}
			a, err := uc.LoadAgent(&model)
			if err != nil {
				t.Fatalf("model.bin from the harness does not load: %v", err)
			}
			if (a.Discrete == nil) != (uc.Discrete == nil) {
				t.Fatal("loaded agent has the wrong action space")
			}

			rng := rand.New(rand.NewSource(2))
			var obs []float64
			if uc.NewDiscreteEnv != nil {
				e := uc.NewDiscreteEnv(env.RL1, rng)
				obs = e.Reset(rng)
				if e.ObsSize() != uc.ObsSize || e.NumActions() != uc.Discrete.NumActions {
					t.Fatalf("env shape %d/%d, want %d/%d", e.ObsSize(), e.NumActions(), uc.ObsSize, uc.Discrete.NumActions)
				}
			} else {
				e := uc.NewContinuousEnv(env.RL1, rng)
				obs = e.Reset(rng)
				if e.ObsSize() != uc.ObsSize || e.ActionDim() != uc.Gaussian.ActionDim {
					t.Fatalf("env shape %d/%d, want %d/%d", e.ObsSize(), e.ActionDim(), uc.ObsSize, uc.Gaussian.ActionDim)
				}
			}
			if len(obs) != uc.ObsSize {
				t.Fatalf("observation has %d dims, want %d", len(obs), uc.ObsSize)
			}
			action, vec := uc.Fallback(obs)
			if uc.Discrete != nil && (action < 0 || action >= uc.Discrete.NumActions || vec != nil) {
				t.Fatalf("fallback (%d, %v) outside the discrete action space", action, vec)
			}
			if uc.Gaussian != nil && (action != -1 || len(vec) != uc.Gaussian.ActionDim) {
				t.Fatalf("fallback (%d, %v) is not a continuous action", action, vec)
			}
		})
	}
}

func TestStrategy(t *testing.T) {
	for _, uc := range UseCases {
		for _, tc := range []struct {
			name      string
			level     env.RangeLevel
			objective string
		}{
			{"rl1", env.RL1, ""},
			{"RL2", env.RL2, ""},
			{"rl3", env.RL3, ""},
			{"genet", env.RL3, uc.Genet.Name},
			{"cl2", env.RL3, BaselinePerfObjective().Name},
			{"CL3", env.RL3, uc.CL3.Name},
		} {
			level, obj, err := uc.Strategy(tc.name)
			if err != nil || level != tc.level || obj.Name != tc.objective {
				t.Fatalf("%s.Strategy(%q) = %v, %q, %v; want %v, %q", uc.Name, tc.name, level, obj.Name, err, tc.level, tc.objective)
			}
		}
		if _, _, err := uc.Strategy("cl1"); err == nil {
			t.Fatalf("%s: unknown strategy accepted", uc.Name)
		}
	}
	// CC rewards scale with link bandwidth, so its curriculum searches
	// normalized gaps.
	if CC.Genet.Name != NormalizedGapObjective().Name || CC.CL3.Name != NormalizedOptGapObjective().Name {
		t.Fatalf("cc objectives %q/%q are not normalized", CC.Genet.Name, CC.CL3.Name)
	}
}

func iterSize(h Harness) [2]int {
	switch hh := h.(type) {
	case *ABRHarness:
		return [2]int{hh.EnvsPerIter, hh.StepsPerIter}
	case *CCHarness:
		return [2]int{hh.EnvsPerIter, hh.StepsPerIter}
	case *LBHarness:
		return [2]int{hh.EnvsPerIter, hh.StepsPerIter}
	}
	return [2]int{}
}
