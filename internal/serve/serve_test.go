package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/rl"
)

// writeABRModel publishes a fresh abr policy at path the way the trainers
// do: atomically, via temp+rename.
func writeABRModel(t *testing.T, path string, seed int64) {
	t.Helper()
	agent, err := rl.NewDiscreteAgent(
		rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)),
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.AtomicWriteFile(path, agent.Save); err != nil {
		t.Fatal(err)
	}
}

func writeCCModel(t *testing.T, path string, seed int64) {
	t.Helper()
	agent, err := rl.NewGaussianAgent(
		rl.DefaultGaussianConfig(cc.ObsSize, 1),
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.AtomicWriteFile(path, agent.Save); err != nil {
		t.Fatal(err)
	}
}

func abrServer(t *testing.T, reg *metrics.Registry) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, obs.ModelFile)
	writeABRModel(t, path, 1)
	m, err := LoadModel("abr", path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("abr", m, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestUseCaseNameFoldsCase: the use case is named in any case, as
// genet-train accepts it; the server reports the canonical name.
func TestUseCaseNameFoldsCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abr.bin")
	writeABRModel(t, path, 1)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ReadModel("ABR", f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("ABR", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.UseCase() != "abr" || m.UseCase() != "abr" {
		t.Fatalf("server reports %q, model %q, want abr", s.UseCase(), m.UseCase())
	}
	if err := s.Swap(m); err != nil {
		t.Fatalf("swap of a model read as ABR: %v", err)
	}
}

func TestLoadModelValidates(t *testing.T) {
	dir := t.TempDir()
	abrPath := filepath.Join(dir, "abr.bin")
	ccPath := filepath.Join(dir, "cc.bin")
	writeABRModel(t, abrPath, 1)
	writeCCModel(t, ccPath, 2)

	m, err := LoadModel("abr", abrPath)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Discrete() || m.ObsSize() != abr.ObsSize || m.NumActions() != len(abr.DefaultBitratesKbps) {
		t.Fatalf("abr model shape: discrete=%v obs=%d actions=%d", m.Discrete(), m.ObsSize(), m.NumActions())
	}

	// A model handed to the wrong use case must be rejected at load time.
	if _, err := LoadModel("cc", abrPath); err == nil {
		t.Fatal("abr model loaded as cc")
	}
	if _, err := LoadModel("abr", ccPath); err == nil {
		t.Fatal("cc model loaded as abr")
	}
	if _, err := LoadModel("routing", abrPath); err == nil {
		t.Fatal("unknown use case accepted")
	}
	if _, err := LoadModel("abr", filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}

	// Greedy inference is deterministic and dimension-checked.
	obsVec := make([]float64, abr.ObsSize)
	d1, err := m.Decide(obsVec)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := m.Decide(obsVec)
	if d1.Action != d2.Action {
		t.Fatalf("greedy decisions differ: %d vs %d", d1.Action, d2.Action)
	}
	if d1.Action < 0 || d1.Action >= len(abr.DefaultBitratesKbps) {
		t.Fatalf("action %d out of range", d1.Action)
	}
	if _, err := m.Decide(make([]float64, abr.ObsSize+1)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}

	cm, err := LoadModel("cc", ccPath)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := cm.Decide(make([]float64, cc.ObsSize))
	if err != nil {
		t.Fatal(err)
	}
	if cd.Action != -1 || len(cd.ActionVec) != 1 {
		t.Fatalf("cc decision = %+v, want Action -1 and 1-dim vector", cd)
	}
}

func TestServerSwapVersioning(t *testing.T) {
	reg := metrics.NewRegistry()
	s, path := abrServer(t, reg)

	obsVec := make([]float64, abr.ObsSize)
	d, err := s.Decide(obsVec)
	if err != nil {
		t.Fatal(err)
	}
	if d.ModelVersion != 1 {
		t.Fatalf("initial decision version = %d, want 1", d.ModelVersion)
	}

	writeABRModel(t, path, 99)
	if err := s.SwapFrom(path); err != nil {
		t.Fatal(err)
	}
	if d, _ = s.Decide(obsVec); d.ModelVersion != 2 {
		t.Fatalf("post-swap decision version = %d, want 2", d.ModelVersion)
	}
	if s.Swaps() != 2 {
		t.Fatalf("Swaps() = %d, want 2", s.Swaps())
	}
	if got := reg.Counter(MetricSwapsOK).Value(); got != 1 {
		t.Fatalf("swaps_total = %d, want 1", got)
	}

	if err := s.Swap(nil); err == nil {
		t.Fatal("Swap(nil) accepted")
	}
	info := s.Info()
	if info.ModelVersion != 2 || info.SwapsReject != 1 {
		t.Fatalf("Info = %+v, want version 2 and 1 rejection", info)
	}
}

// TestSwapRejectionKeepsServing is the acceptance scenario: torn and
// architecture-mismatched candidates are rejected without dropping the
// live policy.
func TestSwapRejectionKeepsServing(t *testing.T) {
	reg := metrics.NewRegistry()
	s, path := abrServer(t, reg)
	obsVec := make([]float64, abr.ObsSize)
	want, _ := s.Decide(obsVec)

	// Torn file: a prefix of a valid model, as a crashed non-atomic writer
	// would leave behind.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(t.TempDir(), "torn.bin")
	if err := os.WriteFile(tornPath, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapFrom(tornPath); err == nil {
		t.Fatal("torn model accepted")
	} else if !strings.Contains(err.Error(), "keeping model v1") {
		t.Fatalf("rejection error does not name the kept version: %v", err)
	}

	// Architecture mismatch: a cc model offered to an abr server.
	ccPath := filepath.Join(t.TempDir(), "cc.bin")
	writeCCModel(t, ccPath, 3)
	if err := s.SwapFrom(ccPath); err == nil {
		t.Fatal("cc model accepted by abr server")
	}

	// The live policy is untouched through both rejections.
	got, err := s.Decide(obsVec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Action != want.Action || got.ModelVersion != want.ModelVersion {
		t.Fatalf("decision changed across rejected swaps: %+v vs %+v", got, want)
	}
	if got.ModelVersion != 1 {
		t.Fatalf("version = %d after rejections, want 1", got.ModelVersion)
	}
	if n := reg.Counter(MetricSwapsRejected).Value(); n != 2 {
		t.Fatalf("swaps_rejected = %d, want 2", n)
	}
}

// TestHotSwapRace hammers Decide from many goroutines while models swap
// underneath: run under -race, it pins the lock-free swap contract — zero
// failed decisions, and every decision stamped with a version that was
// actually published.
func TestHotSwapRace(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.bin")
	pathB := filepath.Join(dir, "b.bin")
	writeABRModel(t, pathA, 1)
	writeABRModel(t, pathB, 2)

	m, err := LoadModel("abr", pathA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("abr", m, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}

	const deciders = 8
	stop := make(chan struct{})
	var failed atomic.Int64
	var decisions atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < deciders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			obsVec := make([]float64, abr.ObsSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range obsVec {
					obsVec[i] = rng.Float64()
				}
				d, err := s.Decide(obsVec)
				if err != nil || d.ModelVersion == 0 {
					failed.Add(1)
					return
				}
				decisions.Add(1)
			}
		}(g)
	}

	const swaps = 50
	for i := 0; i < swaps; i++ {
		p := pathA
		if i%2 == 0 {
			p = pathB
		}
		if err := s.SwapFrom(p); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	// On a single-CPU host the swap loop can finish before the decider
	// goroutines ever get scheduled; hold the stop until the storm has
	// demonstrably overlapped at least one decision (or a failure).
	for decisions.Load() == 0 && failed.Load() == 0 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d decisions failed during hot swaps", failed.Load())
	}
	if decisions.Load() == 0 {
		t.Fatal("no decisions completed during the swap storm")
	}
	if s.Swaps() != swaps+1 {
		t.Fatalf("Swaps() = %d, want %d", s.Swaps(), swaps+1)
	}
}

// TestWatcherSwaps drives the poll loop by hand: a republished model is
// picked up once, a torn file is rejected once (not once per tick), and
// the live policy survives.
func TestWatcherSwaps(t *testing.T) {
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	path := filepath.Join(dir, obs.ModelFile)
	writeABRModel(t, path, 1)
	m, err := LoadModel("abr", path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("abr", m, reg)
	if err != nil {
		t.Fatal(err)
	}

	type event struct {
		path string
		err  error
	}
	var mu sync.Mutex
	var events []event
	// Loop-less watcher: every cycle below is an explicit Poll, satisfying
	// the single-threaded Poll contract.
	w := newWatcher(s, dir, time.Hour, func(p string, err error) {
		mu.Lock()
		events = append(events, event{p, err})
		mu.Unlock()
	})
	defer w.Close()

	// The initial file was already loaded: no event on an unchanged poll.
	w.Poll()
	mu.Lock()
	if len(events) != 0 {
		mu.Unlock()
		t.Fatalf("poll of unchanged file produced %d events", len(events))
	}
	mu.Unlock()

	// Republish → exactly one successful swap. Nudge mtime in case the
	// filesystem clock is too coarse to distinguish the two writes.
	writeABRModel(t, path, 42)
	bump := time.Now().Add(2 * time.Second)
	os.Chtimes(path, bump, bump)
	w.Poll()
	mu.Lock()
	if len(events) != 1 || events[0].err != nil || events[0].path != path {
		mu.Unlock()
		t.Fatalf("republish events = %+v", events)
	}
	mu.Unlock()
	if s.Swaps() != 2 {
		t.Fatalf("Swaps() = %d after republish, want 2", s.Swaps())
	}

	// Torn write straight to the watched path (bypassing temp+rename, as a
	// buggy producer would): one rejection, live policy keeps serving, and
	// the same broken file is not retried next tick.
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	bump = bump.Add(2 * time.Second)
	os.Chtimes(path, bump, bump)
	w.Poll()
	w.Poll()
	mu.Lock()
	if len(events) != 2 || events[1].err == nil {
		mu.Unlock()
		t.Fatalf("torn-write events = %+v, want one rejection", events)
	}
	mu.Unlock()
	if s.Swaps() != 2 {
		t.Fatalf("Swaps() = %d after torn write, want 2 (unchanged)", s.Swaps())
	}
	if _, err := s.Decide(make([]float64, abr.ObsSize)); err != nil {
		t.Fatalf("live policy broken after torn write: %v", err)
	}
	if n := reg.Counter(MetricSwapsRejected).Value(); n != 1 {
		t.Fatalf("swaps_rejected = %d, want 1", n)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, _ := abrServer(t, metrics.NewRegistry())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// /healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	// /decide round trip.
	req := DecideRequest{Obs: make([]float64, abr.ObsSize)}
	payload, _ := json.Marshal(req)
	resp, err = http.Post(ts.URL+"/decide", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/decide = %d", resp.StatusCode)
	}
	if d.ModelVersion != 1 || d.Action < 0 || d.Action >= len(abr.DefaultBitratesKbps) {
		t.Fatalf("/decide decision = %+v", d)
	}

	// Error paths: wrong method, bad JSON, wrong dimensions.
	resp, _ = http.Get(ts.URL + "/decide")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /decide = %d, want 405", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/decide", "application/json", strings.NewReader("{not json"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON /decide = %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/decide", "application/json", strings.NewReader(`{"obs":[1,2,3]}`))
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "dims") {
		t.Fatalf("short obs /decide = %d %q, want 400 naming dims", resp.StatusCode, msg)
	}

	// /model reflects the serving state.
	resp, err = http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.UseCase != "abr" || info.ModelVersion != 1 || info.ObsSize != abr.ObsSize || !info.Discrete {
		t.Fatalf("/model = %+v", info)
	}
	if info.Decisions != 1 {
		t.Fatalf("/model decisions = %d, want 1 (the successful /decide)", info.Decisions)
	}

	// /metrics exposes the latency histogram and its derived percentiles.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"genet_serve_decisions_total 1",
		// Only the successful decide lands in the latency histogram: the
		// dimension-mismatch is rejected before the policy is evaluated,
		// so malformed requests cannot skew the latency percentiles.
		"genet_serve_decide_seconds_count 1",
		"genet_serve_decide_errors_total 1",
		"genet_serve_decide_p50_seconds",
		"genet_serve_decide_p99_seconds",
		"genet_serve_model_version 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestClientErrorPropagation: the HTTP Decider surfaces server-side
// rejections as errors carrying the server's message.
func TestClientErrorPropagation(t *testing.T) {
	s, _ := abrServer(t, nil)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	c := NewClient(ts.URL + "/") // trailing slash must not break the path
	d, err := c.Decide(make([]float64, abr.ObsSize))
	if err != nil {
		t.Fatal(err)
	}
	if d.ModelVersion != 1 {
		t.Fatalf("client decision = %+v", d)
	}
	if _, err := c.Decide([]float64{1}); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Fatalf("dimension error not propagated: %v", err)
	}
	bad := NewClient("http://127.0.0.1:1")
	if _, err := bad.Decide(make([]float64, abr.ObsSize)); err == nil {
		t.Fatal("unreachable server produced no error")
	}
}
