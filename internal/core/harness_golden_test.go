package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/trace"
)

// goldenHarness pins each use case's Train/Test surface bit for bit: every
// EvalResult field for each EvalNeed, with the default baseline and with a
// two-member ensemble (the oracle and ensemble max paths no trainer golden
// reaches), and the agent state after trace-mixed training.
type goldenHarness struct {
	Kernel string            `json:"kernel"`
	Eval   map[string]string `json:"eval"`
	Train  map[string]string `json:"train_state_sha256"`
}

const goldenHarnessPath = "testdata/golden_harness.json"

// goldenHarnessCase builds one use case's harness with its ensemble setter
// and, for trace-driven use cases, its trace-mixed training setup.
type goldenHarnessCase struct {
	name  string
	cfg   func(h Harness) env.Config
	build func(t *testing.T) Harness
	// ensemble replaces h's baseline with a two-member ensemble that
	// leaves the default baseline out.
	ensemble func(h Harness)
	// traces sets a trace set with mixing probability 1 (nil: the use case
	// has no trace-driven training).
	traces func(h Harness, set *trace.Set)
}

var goldenHarnessCases = []goldenHarnessCase{
	{
		name: "abr",
		cfg:  func(h Harness) env.Config { return h.Space().Default(nil) },
		build: func(t *testing.T) Harness {
			h, err := NewABRHarness(env.ABRSpace(env.RL1), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			h.EnvsPerIter, h.StepsPerIter = 2, 60
			return h
		},
		ensemble: func(h Harness) {
			h.(*ABRHarness).Ensemble = []func() abr.Policy{
				func() abr.Policy { return &abr.BBA{} },
				func() abr.Policy { return abr.RateBased{} },
			}
		},
		traces: func(h Harness, set *trace.Set) {
			h.(*ABRHarness).TraceSet, h.(*ABRHarness).TraceProb = set, 1
		},
	},
	{
		name: "cc",
		cfg:  func(h Harness) env.Config { return h.Space().Default(nil) },
		build: func(t *testing.T) Harness {
			h, err := NewCCHarness(env.CCSpace(env.RL1), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			h.EnvsPerIter, h.StepsPerIter = 2, 60
			return h
		},
		ensemble: func(h Harness) {
			h.(*CCHarness).Ensemble = []func() cc.Sender{
				func() cc.Sender { return cc.NewCubic() },
				func() cc.Sender { return cc.NewCopa() },
			}
		},
		traces: func(h Harness, set *trace.Set) {
			h.(*CCHarness).TraceSet, h.(*CCHarness).TraceProb = set, 1
		},
	},
	{
		name: "lb",
		cfg: func(h Harness) env.Config {
			// A loaded cluster, so the baselines differ.
			return h.Space().Default(nil).With(env.LBNumJobs, 80).With(env.LBJobSize, 10000).With(env.LBServiceRate, 0.5)
		},
		build: func(t *testing.T) Harness {
			h, err := NewLBHarness(env.LBSpace(env.RL3), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		ensemble: func(h Harness) {
			h.(*LBHarness).Ensemble = []func() lb.Policy{
				func() lb.Policy { return &lb.RoundRobin{} },
				func() lb.Policy { return lb.FewestRequests{} },
			}
		},
	},
}

// evalBits renders every field of r exactly.
func evalBits(r EvalResult) string {
	b := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	return fmt.Sprintf("rl=%s bl=%s opt=%s norm=%t rln=%s bln=%s optn=%s",
		b(r.RL), b(r.Baseline), b(r.Optimal), r.HasNorm, b(r.RLNorm), b(r.BaselineNorm), b(r.OptimalNorm))
}

// TestHarnessGoldenPinned compares each use case's paired evaluation (all
// three EvalNeed levels, default baseline and ensemble) and its trace-mixed
// training state against the committed golden, bit for bit. Refresh
// intentionally with
//
//	go test ./internal/core/ -run TestHarnessGoldenPinned -update
func TestHarnessGoldenPinned(t *testing.T) {
	got := goldenHarness{Kernel: nn.KernelName(), Eval: map[string]string{}, Train: map[string]string{}}
	needs := []struct {
		name string
		need EvalNeed
	}{{"none", 0}, {"baseline", NeedBaseline}, {"baseline+optimal", NeedBaseline | NeedOptimal}}
	for _, tc := range goldenHarnessCases {
		for _, ensemble := range []bool{false, true} {
			h := tc.build(t)
			bl := "default"
			if ensemble {
				tc.ensemble(h)
				bl = "ensemble"
			}
			for _, n := range needs {
				r := h.Eval(tc.cfg(h), 2, n.need, rand.New(rand.NewSource(21)))
				got.Eval[tc.name+"/"+bl+"/"+n.name] = evalBits(r)
			}
		}
		if tc.traces == nil {
			continue
		}
		h := tc.build(t)
		rng := rand.New(rand.NewSource(23))
		tc.traces(h, trace.GenerateSet(trace.SpecFCC, 3, rng))
		h.Train(env.NewDistribution(h.Space()), 2, rng)
		sum := sha256.Sum256(agentStateBytes(t, h))
		got.Train[tc.name] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		writeGolden(t, goldenHarnessPath, got)
		return
	}
	var want goldenHarness
	readGolden(t, goldenHarnessPath, &want)
	if want.Kernel != got.Kernel {
		t.Skipf("golden recorded on %q kernels, this machine runs %q", want.Kernel, got.Kernel)
	}
	if len(got.Eval) != len(want.Eval) || len(got.Train) != len(want.Train) {
		t.Fatalf("pinned %d evals and %d states, golden has %d and %d",
			len(got.Eval), len(got.Train), len(want.Eval), len(want.Train))
	}
	for k, w := range want.Eval {
		if got.Eval[k] != w {
			t.Errorf("eval %s:\n got %s\nwant %s", k, got.Eval[k], w)
		}
	}
	for k, w := range want.Train {
		if got.Train[k] != w {
			t.Errorf("train %s: state sha256 = %s, golden %s", k, got.Train[k], w)
		}
	}
}
