package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/rl"
)

// fuzzModel saves a fresh policy for uc, shaped by its canonical config.
func fuzzModel(t testing.TB, uc *core.UseCase, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	var err error
	if uc.Discrete != nil {
		var a *rl.DiscreteAgent
		if a, err = rl.NewDiscreteAgent(*uc.Discrete, rng); err == nil {
			err = a.Save(&buf)
		}
	} else {
		var a *rl.GaussianAgent
		if a, err = rl.NewGaussianAgent(*uc.Gaussian, rng); err == nil {
			err = a.Save(&buf)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadModel feeds ReadModel arbitrary bytes offered to each use case.
// ReadModel decodes untrusted files (a watched model path, a run
// directory), so it must never panic, and any model it accepts must have
// exactly the use case's shape and answer a decision.
func FuzzReadModel(f *testing.F) {
	index := func(name string) uint8 {
		for i, uc := range core.UseCases {
			if uc.Name == name {
				return uint8(i)
			}
		}
		f.Fatalf("no use case %q", name)
		return 0
	}
	for i, uc := range core.UseCases {
		f.Add(uint8(i), fuzzModel(f, uc, int64(i+1)))
	}
	abrModel := fuzzModel(f, core.ABR, 1)
	f.Add(index("abr"), abrModel[:len(abrModel)/2]) // truncated

	// A trainer checkpoint: a valid container without a policy section.
	w := ckpt.NewWriter()
	if err := w.Add("agent", []byte("agent-state-bytes")); err != nil {
		f.Fatal(err)
	}
	if err := w.AddGob("trainer", struct{ Round int }{Round: 3}); err != nil {
		f.Fatal(err)
	}
	var trainer bytes.Buffer
	if _, err := w.WriteTo(&trainer); err != nil {
		f.Fatal(err)
	}
	f.Add(index("abr"), trainer.Bytes())

	// The pre-container model.bin: the bare gob model value, which is
	// exactly the container's policy payload.
	file, err := ckpt.Read(bytes.NewReader(abrModel))
	if err != nil {
		f.Fatal(err)
	}
	bare, err := file.Section("policy")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index("abr"), bare)

	f.Add(index("abr"), fuzzModel(f, core.CC, 2)) // wrong use case

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		uc := core.UseCases[int(which)%len(core.UseCases)]
		m, err := ReadModel(uc.Name, bytes.NewReader(data))
		if err != nil {
			return
		}
		wantActions, wantDim := 0, 0
		if uc.Discrete != nil {
			wantActions = uc.Discrete.NumActions
		} else {
			wantDim = uc.Gaussian.ActionDim
		}
		if m.ObsSize() != uc.ObsSize || m.NumActions() != wantActions || m.ActionDim() != wantDim {
			t.Fatalf("%s model accepted with obs=%d actions=%d dim=%d, want %d/%d/%d",
				uc.Name, m.ObsSize(), m.NumActions(), m.ActionDim(), uc.ObsSize, wantActions, wantDim)
		}
		if _, err := m.Decide(make([]float64, uc.ObsSize)); err != nil {
			t.Fatalf("accepted %s model cannot decide: %v", uc.Name, err)
		}
	})
}

// FuzzDecideBody POSTs arbitrary bytes to /decide on an instrumented server
// of every use case. The body is untrusted client input, so the handler
// must never panic, and it must answer 200 with a decision inside the use
// case's action space or 400 with a structured error carrying the trace ID;
// every 400 ticks exactly one of bad_requests_total and decide_errors_total.
func FuzzDecideBody(f *testing.F) {
	servers := make([]*Server, len(core.UseCases))
	for i, uc := range core.UseCases {
		m, err := ReadModel(uc.Name, bytes.NewReader(fuzzModel(f, uc, int64(i+1))))
		if err != nil {
			f.Fatal(err)
		}
		s, err := New(uc.Name, m, metrics.NewRegistry())
		if err != nil {
			f.Fatal(err)
		}
		s.Instrument(NewObserver(ObserverConfig{Seed: 1}))
		servers[i] = s
	}
	for _, uc := range core.UseCases {
		body, err := json.Marshal(DecideRequest{Obs: make([]float64, uc.ObsSize)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	valid, _ := json.Marshal(DecideRequest{Obs: make([]float64, core.ABR.ObsSize)})
	for _, seed := range []string{
		`{"obs":[0.1,0.2,0.3]}`, // wrong length for every use case
		`{"obs":null}`,
		`[]`,
		`{"obs":[1e309]}`, // out of float64 range
		string(valid[:len(valid)/2]),
		string(valid) + `}garbage`,
	} {
		f.Add([]byte(seed))
	}

	rejected := func(s *Server) int64 {
		c := s.Snapshot().Counters
		return c[MetricBadRequests] + c[MetricDecideErrors]
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for i, uc := range core.UseCases {
			s := servers[i]
			before := rejected(s)
			req := httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body))
			rw := httptest.NewRecorder()
			NewHandler(s).ServeHTTP(rw, req)
			switch rw.Code {
			case http.StatusOK:
				var d Decision
				if err := json.Unmarshal(rw.Body.Bytes(), &d); err != nil {
					t.Fatalf("%s: 200 body %q does not decode: %v", uc.Name, rw.Body.Bytes(), err)
				}
				if !validDecision(uc, d) {
					t.Fatalf("%s: 200 with invalid decision %+v", uc.Name, d)
				}
			case http.StatusBadRequest:
				var e ErrorBody
				if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil {
					t.Fatalf("%s: 400 body %q is not an ErrorBody: %v", uc.Name, rw.Body.Bytes(), err)
				}
				if e.Outcome != OutcomeError || e.Error == "" {
					t.Fatalf("%s: 400 error body %+v", uc.Name, e)
				}
				if e.Trace == "" || rw.Header().Get(TraceHeader) != e.Trace {
					t.Fatalf("%s: 400 trace %q, header %q", uc.Name, e.Trace, rw.Header().Get(TraceHeader))
				}
			default:
				t.Fatalf("%s: status %d, want 200 or 400 (body %q)", uc.Name, rw.Code, rw.Body.Bytes())
			}
			want := int64(0)
			if rw.Code == http.StatusBadRequest {
				want = 1
			}
			if got := rejected(s) - before; got != want {
				t.Fatalf("%s: status %d moved bad_requests+decide_errors by %d, want %d", uc.Name, rw.Code, got, want)
			}
		}
	})
}
