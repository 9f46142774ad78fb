package serve

import (
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// decideAllocBudget pins the decide hot path's allocation count for a
// discrete (abr) model with observability NOT attached (observer nil, the
// default): none. The greedy forward runs on a scratch the network lends
// and the logits live on the stack. The trace/span/access-log hooks must
// cost exactly one nil check each when off; any allocation here is a
// regression against that contract.
const decideAllocBudget = 0

// gaussianDecideAllocBudget is the same pin for a continuous (cc) model:
// one allocation, the Decision's ActionVec, which the caller keeps.
const gaussianDecideAllocBudget = 1

func TestDecideHotPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		server  func(t *testing.T) *Server
		obsSize int
		budget  int
	}{
		{"metrics-on", func(t *testing.T) *Server { s, _ := abrServer(t, metrics.NewRegistry()); return s }, abr.ObsSize, decideAllocBudget},
		{"metrics-off", func(t *testing.T) *Server { s, _ := abrServer(t, nil); return s }, abr.ObsSize, decideAllocBudget},
		{"gaussian", func(t *testing.T) *Server { return pinServer(t, core.CC) }, cc.ObsSize, gaussianDecideAllocBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.server(t)
			obsVec := make([]float64, tc.obsSize)
			for i := 0; i < 30; i++ {
				if _, err := s.Decide(obsVec); err != nil {
					t.Fatal(err)
				}
			}
			n := testing.AllocsPerRun(50, func() { s.Decide(obsVec) })
			t.Logf("%s: %.0f allocs/op", tc.name, n)
			if n > float64(tc.budget) {
				t.Fatalf("decide hot path allocates %.0f/op with recording off, budget %d", n, tc.budget)
			}
		})
	}
}

// TestDecideUnsampledAllocs: with an observer attached but this request not
// span-sampled, the only extra allocation permitted is the access-log line
// (JSON encode + write). The span plumbing itself must stay alloc-free on
// the unsampled path.
func TestDecideUnsampledAllocs(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	// Recorder on, huge sampling stride, no access log: after warmup no
	// request in the measured window is sampled, so spans must cost nothing.
	s.Instrument(NewObserver(ObserverConfig{
		Recorder:    obs.NewRecorder(1024),
		SLO:         NewSLOTracker(SLOConfig{}),
		SampleEvery: 1 << 30,
		Seed:        1,
	}))
	obsVec := make([]float64, abr.ObsSize)
	for i := 0; i < 30; i++ {
		if _, err := s.Decide(obsVec); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(50, func() { s.Decide(obsVec) })
	if n > decideAllocBudget {
		t.Fatalf("unsampled instrumented decide allocates %.0f/op, budget %d", n, decideAllocBudget)
	}
}
