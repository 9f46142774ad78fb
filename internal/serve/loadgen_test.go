package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/rl"
)

// loadGenPins pin each use case's serving loops, so any change to the
// episode loop, the observation pool or the fallback policies shows up as a
// behaviour change:
//
//   - decisions/errors: RunLoadGen with 8 sessions, seed 7, 16 max steps
//     against a seed-1 model;
//   - poolSHA: SHA-256 of obsPool(uc, RL1, 11, 32) as little-endian float64
//     bits;
//   - fallbacks: the fallback decision for each observation of that pool.
var loadGenPins = map[string]struct {
	decisions, errors int64
	poolSHA           string
	fallbacks         string
}{
	"abr": {
		decisions: 123,
		poolSHA:   "1a7dd441b444e6690397f7355638bc60cf3065206c710c9b528ca0edb2151390",
		fallbacks: "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,1,1,1,1,1,1,1,0,0,0,0,0,0,0",
	},
	"cc": {
		decisions: 128,
		poolSHA:   "3bbe40cf603e5b661f1530322514356f7d0b0795f55958180dc5108733b667e2",
		fallbacks: "0.1,0.1,0.1,0.1,0.1,0.1,0.1,-1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,-1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,-1,0.1,0.1,0.1,0.1",
	},
	"lb": {
		decisions: 122,
		poolSHA:   "83ffff9bdc0fee311f9a307e41ac31483785b5a7c763dd28f59a09c673bb866f",
		fallbacks: "0,1,2,3,4,0,6,3,1,0,0,1,4,3,5,6,4,7,9,5,6,8,8,5,3,4,6,0,8,7,5,6",
	},
}

// pinServer serves a seed-1 model for the use case.
func pinServer(t *testing.T, uc *core.UseCase) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.bin")
	var save func(io.Writer) error
	rng := rand.New(rand.NewSource(1))
	if uc.Discrete != nil {
		a, err := rl.NewDiscreteAgent(*uc.Discrete, rng)
		if err != nil {
			t.Fatal(err)
		}
		save = a.Save
	} else {
		a, err := rl.NewGaussianAgent(*uc.Gaussian, rng)
		if err != nil {
			t.Fatal(err)
		}
		save = a.Save
	}
	if err := ckpt.AtomicWriteFile(path, save); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(uc.Name, path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(uc.Name, m, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// poolDigest hashes an observation pool's float64 bits.
func poolDigest(pool [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range pool {
		for _, v := range o {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fallbackTrace renders the fallback decision for each pool observation.
func fallbackTrace(t *testing.T, uc *core.UseCase, pool [][]float64) string {
	t.Helper()
	parts := make([]string, len(pool))
	for i, o := range pool {
		d, err := fallbackDecision(uc, o)
		if err != nil {
			t.Fatalf("%s pool obs %d: %v", uc, i, err)
		}
		if d.ActionVec != nil {
			parts[i] = fmt.Sprint(d.ActionVec[0])
		} else {
			parts[i] = fmt.Sprint(d.Action)
		}
	}
	return strings.Join(parts, ",")
}

// TestLoadGenDeterminism: with a deterministic in-process decider, the same
// seed must produce the same decision count — the property the CI smoke
// relies on to treat count drift as a regression — and every use case's
// counts, observation pool and fallback decisions match the pins.
func TestLoadGenDeterminism(t *testing.T) {
	for _, uc := range core.UseCases {
		t.Run(uc.Name, func(t *testing.T) {
			s := pinServer(t, uc)
			cfg := LoadGenConfig{UseCase: uc.Name, Sessions: 8, Workers: 4, Seed: 7, MaxSteps: 16}

			r1, err := RunLoadGen(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunLoadGen(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Errors != 0 || r2.Errors != 0 {
				t.Fatalf("loadgen errors: %d, %d", r1.Errors, r2.Errors)
			}
			if r1.Decisions == 0 {
				t.Fatal("loadgen made no decisions")
			}
			if r1.Decisions != r2.Decisions {
				t.Fatalf("same seed, different decision counts: %d vs %d", r1.Decisions, r2.Decisions)
			}
			// Sequential run must agree with the parallel one (par discipline).
			cfg.Workers = 1
			r3, err := RunLoadGen(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r3.Decisions != r1.Decisions {
				t.Fatalf("workers=1 decisions %d != workers=4 decisions %d", r3.Decisions, r1.Decisions)
			}
			if r1.QPS <= 0 || r1.P50 < 0 || r1.P99 < r1.P50 {
				t.Fatalf("report stats implausible: %+v", r1)
			}
			if r1.String() == "" {
				t.Fatal("empty report rendering")
			}

			pool := obsPool(uc, env.RL1, 11, 32)
			got := loadGenPins[uc.Name]
			got.decisions, got.errors = r1.Decisions, r1.Errors
			got.poolSHA = poolDigest(pool)
			got.fallbacks = fallbackTrace(t, uc, pool)
			if want := loadGenPins[uc.Name]; got != want {
				t.Errorf("pins drifted:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestLoadGenOverHTTP closes the full loop: sessions drive the policy
// through the HTTP data plane, and the server's own metrics agree with the
// generator's count.
func TestLoadGenOverHTTP(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	rep, err := RunLoadGen(NewClient(ts.URL), LoadGenConfig{
		UseCase: "abr", Sessions: 4, Workers: 2, Seed: 11, MaxSteps: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors over HTTP", rep.Errors)
	}
	if rep.Decisions == 0 {
		t.Fatal("no decisions over HTTP")
	}
	if got := reg.Counter(MetricDecisions).Value(); got != rep.Decisions {
		t.Fatalf("server counted %d decisions, loadgen %d", got, rep.Decisions)
	}
}

func TestLoadGenRejectsUnknownUseCase(t *testing.T) {
	s, _ := abrServer(t, nil)
	if _, err := RunLoadGen(s, LoadGenConfig{UseCase: "routing"}); err == nil {
		t.Fatal("unknown use case accepted")
	}
}
