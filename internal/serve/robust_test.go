package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/lb"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// --- fallback policies -------------------------------------------------

// abrObsWithBuffer builds an abr observation whose only meaningful feature
// is the squashed buffer occupancy for bufSec seconds (index 1; see
// abr.AppendObsVector).
func abrObsWithBuffer(bufSec float64) []float64 {
	o := make([]float64, abr.ObsSize)
	o[1] = bufSec / (bufSec + 10)
	return o
}

// The fallback policies' own properties are pinned beside them (abr, cc,
// lb TestFallback); these check the serving wrapper: decision shape, the
// Fallback flag, and observation-length validation.

func TestFallbackABR(t *testing.T) {
	starved := make([]float64, abr.ObsSize) // empty buffer
	d, err := fallbackDecision(core.ABR, starved)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != 0 || d.ActionVec != nil || !d.Fallback || d.ModelVersion != 0 {
		t.Fatalf("starved buffer decision = %+v, want lowest bitrate fallback", d)
	}
	if _, err := fallbackDecision(core.ABR, make([]float64, abr.ObsSize+1)); err == nil {
		t.Fatal("wrong dims accepted")
	}
}

func TestFallbackCC(t *testing.T) {
	clean := make([]float64, cc.ObsSize)
	d, err := fallbackDecision(core.CC, clean)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != -1 || len(d.ActionVec) != 1 || !d.Fallback {
		t.Fatalf("cc fallback decision shape = %+v", d)
	}
	if d.ActionVec[0] != cc.Fallback(clean) {
		t.Fatalf("cc fallback action %v, want cc.Fallback's %v", d.ActionVec[0], cc.Fallback(clean))
	}
	if _, err := fallbackDecision(core.CC, clean[1:]); err == nil {
		t.Fatal("wrong dims accepted")
	}
}

func TestFallbackLB(t *testing.T) {
	o := make([]float64, lb.ObsSize)
	for i := 0; i < lb.NumServers; i++ {
		o[2+i] = 0.9
	}
	o[2+4] = 0.1
	d, err := fallbackDecision(core.LB, o)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != 4 || d.ActionVec != nil || !d.Fallback {
		t.Fatalf("least-load decision = %+v, want server 4", d)
	}
	if _, err := fallbackDecision(core.LB, o[1:]); err == nil {
		t.Fatal("wrong dims accepted")
	}
}

// --- admission gate ----------------------------------------------------

func TestGateAdmission(t *testing.T) {
	g := NewGate(2, 5*time.Millisecond)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := g.Inflight(); got != 2 {
		t.Fatalf("Inflight = %d, want 2", got)
	}
	// Full gate: the third request waits out its budget, then is shed.
	if err := g.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("over-capacity Acquire = %v, want ErrShed", err)
	}
	// A canceled context beats the wait budget and keeps its own error.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := g.Acquire(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Acquire = %v, want context.Canceled", err)
	}
	// A seat freed within the budget seats the waiter instead of shedding.
	patient := NewGate(1, time.Second)
	if err := patient.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		patient.Release()
	}()
	if err := patient.Acquire(ctx); err != nil {
		t.Fatalf("waiter not seated after release: %v", err)
	}

	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("post-release Acquire = %v", err)
	}

	// Nil gate: the pre-robustness no-op.
	var nilGate *Gate
	if err := nilGate.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	nilGate.Release()
	if nilGate.Inflight() != 0 || nilGate.Capacity() != 0 {
		t.Fatal("nil gate reports occupancy")
	}
	if NewGate(0, time.Second) != nil {
		t.Fatal("zero-capacity gate not nil")
	}
}

// --- degraded mode -----------------------------------------------------

// TestDegradedFallbackAndRecovery walks the whole quarantine state machine
// sequentially: consecutive model failures quarantine, every request is
// still answered (by fallback), probes fail while the fault persists, and
// enough good probes restore full service once it stops.
func TestDegradedFallbackAndRecovery(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	inj := faults.New(7)
	inj.Enable(faults.DecideError, 1) // every model evaluation fails
	s.Configure(RobustnessOptions{
		Degrade:  DegradeConfig{QuarantineAfter: 3, ProbeEvery: 4, RecoverAfter: 2},
		Injector: inj,
	})
	obsVec := abrObsWithBuffer(12)

	// Three consecutive failures: each served by fallback, third quarantines.
	for i := 0; i < 3; i++ {
		d, err := s.Decide(obsVec)
		if err != nil {
			t.Fatalf("decide %d during failures: %v", i, err)
		}
		if !d.Fallback {
			t.Fatalf("decide %d not served by fallback", i)
		}
	}
	if !s.Degraded() || s.Ready() {
		t.Fatal("server not degraded after QuarantineAfter failures")
	}
	if n := reg.Counter(MetricQuarantines).Value(); n != 1 {
		t.Fatalf("quarantines = %d, want 1", n)
	}
	if n := reg.Counter(MetricModelFailures).Value(); n != 3 {
		t.Fatalf("model failures = %d, want 3", n)
	}

	// Degraded: requests keep being answered; probes fire but fail.
	for i := 0; i < 8; i++ {
		if d, err := s.Decide(obsVec); err != nil || !d.Fallback {
			t.Fatalf("degraded decide %d = %+v, %v", i, d, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("recovered while the fault storm was still on")
	}

	// Fault storm ends: probes succeed, RecoverAfter of them restore.
	s.inj = nil
	for i := 0; i < 2*4 && s.Degraded(); i++ {
		if _, err := s.Decide(obsVec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Degraded() || !s.Ready() {
		t.Fatal("server did not recover after faults stopped")
	}
	d, err := s.Decide(obsVec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fallback || d.ModelVersion != 1 {
		t.Fatalf("post-recovery decision = %+v, want model-served", d)
	}
}

// TestDegradedSequenceDeterministicPerSeed runs the same seeded fault
// scenario twice against identical models and requires bit-identical
// decision sequences — the acceptance-criteria determinism pin.
func TestDegradedSequenceDeterministicPerSeed(t *testing.T) {
	pool := obsPool(core.ABR, env.RL1, 5, 32)
	run := func() []string {
		s, _ := abrServer(t, metrics.NewRegistry())
		inj := faults.New(99)
		inj.Enable(faults.DecideError, 3)
		s.Configure(RobustnessOptions{
			Degrade:  DegradeConfig{QuarantineAfter: 2, ProbeEvery: 4, RecoverAfter: 2},
			Injector: inj,
		})
		var trace []string
		for i := 0; i < 200; i++ {
			d, err := s.Decide(pool[i%len(pool)])
			trace = append(trace, fmt.Sprintf("%d|%d|%v|%v|%v",
				i, d.Action, d.Fallback, err != nil, s.Degraded()))
		}
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("runs diverge at request %d: %q vs %q", i, a[i], b[i])
			}
		}
		t.Fatal("runs differ in length")
	}
}

// TestChaosStormConcurrent is the -race chaos test: concurrent clients
// hammer a gated server through a fault storm (every model evaluation
// failing, latency spikes, tight deadlines). Invariants: every outcome is
// a valid decision or a classified error — never a torn response, never a
// wedge — and once the storm stops, probing restores full model service.
func TestChaosStormConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	inj := faults.New(13)
	inj.Enable(faults.DecideError, 1)
	inj.Enable(faults.DecideLatency, 3)
	s.Configure(RobustnessOptions{
		MaxInflight:  4,
		ShedWait:     time.Millisecond,
		Degrade:      DegradeConfig{QuarantineAfter: 3, ProbeEvery: 2, RecoverAfter: 2},
		Injector:     inj,
		LatencySpike: 2 * time.Millisecond,
	})
	pool := obsPool(core.ABR, env.RL1, 23, 64)

	const workers, perWorker = 8, 40
	var okCount, shedCount, deadlineCount, torn, unexpected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				d, err := s.DecideCtx(ctx, pool[(g*perWorker+i)%len(pool)])
				cancel()
				switch {
				case err == nil:
					if !validDecision(core.ABR, d) {
						torn.Add(1)
					} else {
						okCount.Add(1)
					}
				case errors.Is(err, ErrShed):
					shedCount.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					deadlineCount.Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn responses during the storm", torn.Load())
	}
	if unexpected.Load() != 0 {
		t.Fatalf("%d unclassified errors during the storm", unexpected.Load())
	}
	if okCount.Load() == 0 {
		t.Fatal("no request succeeded during the storm (fallback should have served)")
	}
	if !s.Degraded() {
		t.Fatal("server not degraded after an all-failures storm")
	}

	// Storm over: sequential probing must restore full model service.
	s.inj = nil
	for i := 0; i < 100 && !s.Ready(); i++ {
		if _, err := s.Decide(pool[i%len(pool)]); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Ready() {
		t.Fatal("server did not recover after the storm stopped")
	}
	d, err := s.Decide(pool[0])
	if err != nil || d.Fallback {
		t.Fatalf("post-recovery decision = %+v, %v, want model-served", d, err)
	}
	t.Logf("storm: ok=%d shed=%d deadline=%d", okCount.Load(), shedCount.Load(), deadlineCount.Load())
}

// --- HTTP overload responses -------------------------------------------

func TestHTTPShedAndDeadline(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	inj := faults.New(1)
	inj.Enable(faults.DecideLatency, 1) // every admitted decide stalls
	s.Configure(RobustnessOptions{
		MaxInflight:  1,
		ShedWait:     time.Millisecond,
		Injector:     inj,
		LatencySpike: 300 * time.Millisecond,
	})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	payload := decidePayload(t, abrObsWithBuffer(12))

	// Request A occupies the single seat for the spike duration; request B
	// arrives mid-flight and must be shed with 503 + Retry-After.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/decide", "application/json", strings.NewReader(payload))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/decide", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded /decide = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("seated request finished with %d, want 200", code)
	}
	if n := reg.Counter(MetricShed).Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}

	// A per-request deadline shorter than the stall maps to 504.
	s.Configure(RobustnessOptions{
		Deadline:     30 * time.Millisecond,
		Injector:     inj,
		LatencySpike: 300 * time.Millisecond,
	})
	resp, err = http.Post(ts.URL+"/decide", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("past-deadline /decide = %d, want 504", resp.StatusCode)
	}
	if n := reg.Counter(MetricDeadlineExceeded).Value(); n != 1 {
		t.Fatalf("deadline counter = %d, want 1", n)
	}
}

func TestReadyzFlipsWithDegradation(t *testing.T) {
	s, _ := abrServer(t, metrics.NewRegistry())
	inj := faults.New(2)
	inj.Enable(faults.DecideError, 1)
	s.Configure(RobustnessOptions{
		Degrade:  DegradeConfig{QuarantineAfter: 1, ProbeEvery: 1, RecoverAfter: 1},
		Injector: inj,
	})
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()
	payload := decidePayload(t, abrObsWithBuffer(12))

	assertReadyz := func(wantCode int, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantBody) {
			t.Fatalf("/readyz = %d %q, want %d %q", resp.StatusCode, body, wantCode, wantBody)
		}
	}

	assertReadyz(http.StatusOK, "ready")

	// One failing decide quarantines (threshold 1); the response is still a
	// valid 200 — the client is kept whole by the fallback.
	resp, err := http.Post(ts.URL+"/decide", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d Decision
	if err := jsonDecode(resp.Body, &d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !d.Fallback || !validDecision(core.ABR, d) {
		t.Fatalf("degrading /decide = %d %+v, want 200 fallback", resp.StatusCode, d)
	}
	assertReadyz(http.StatusServiceUnavailable, "degraded")

	// Faults stop: the next decide probes, recovers, and /readyz flips back.
	s.inj = nil
	resp, err = http.Post(ts.URL+"/decide", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	assertReadyz(http.StatusOK, "ready")

	// /metrics exposes the degradation story.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"genet_serve_model_quarantines_total 1",
		"genet_serve_fallback_decisions_total",
		"genet_serve_degraded 0",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// --- watcher backoff ---------------------------------------------------

func TestWatcherErrorBackoff(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)

	// A regular file as a path component makes stat fail with a real error
	// (ENOTDIR) — not "does not exist yet", which is quiet by design.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blocker, obs.ModelFile)
	// Loop-less watcher: the test drives every Poll, so errs/Delay reads
	// are single-threaded as the Poll contract requires.
	w := newWatcher(s, path, time.Minute, nil)
	defer w.Close()

	if got := w.Delay(); got != time.Minute {
		t.Fatalf("initial delay = %v, want base interval", got)
	}
	for i := 1; i <= 3; i++ {
		w.Poll()
		want := time.Minute << uint(i)
		if got := w.Delay(); got != want {
			t.Fatalf("delay after %d error polls = %v, want %v", i, got, want)
		}
	}
	if n := reg.Counter(MetricWatchErrors).Value(); n != 3 {
		t.Fatalf("watch_errors = %d, want 3", n)
	}

	// The backoff is capped: even an absurd error streak polls eventually.
	w.errs = 1000
	if got, want := w.Delay(), watchBackoffCap*time.Minute; got != want {
		t.Fatalf("capped delay = %v, want %v", got, want)
	}
	w.errs = 3

	// The producer recovers: the next poll swaps and resets the backoff.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	writeABRModel(t, path, 9)
	w.Poll()
	if s.Swaps() != 2 {
		t.Fatalf("Swaps() = %d after recovery, want 2", s.Swaps())
	}
	if got := w.Delay(); got != time.Minute {
		t.Fatalf("delay after recovery = %v, want base interval", got)
	}
}

// --- client retry, backoff, breaker ------------------------------------

func TestClientRetriesThenSucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"action":3,"model_version":1}`)
	}))
	defer ts.Close()

	c := NewClientSeeded(ts.URL, 42)
	c.BackoffBase = time.Millisecond
	c.BackoffMax = 2 * time.Millisecond
	c.BreakerThreshold = -1
	d, err := c.Decide(make([]float64, abr.ObsSize))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != 3 {
		t.Fatalf("decision = %+v", d)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two sheds retried)", n)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "observation has 3 dims", http.StatusBadRequest)
	}))
	defer ts.Close()

	c := NewClientSeeded(ts.URL, 1)
	c.BackoffBase = time.Millisecond
	if _, err := c.Decide([]float64{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "dims") {
		t.Fatalf("err = %v, want the server's 400 message", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1 (4xx is not retryable)", n)
	}
}

func TestClientCircuitBreaker(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"action":1,"model_version":1}`)
	}))
	defer ts.Close()

	now := time.Unix(1000, 0)
	c := NewClientSeeded(ts.URL, 1)
	c.MaxRetries = -1 // isolate the breaker: one attempt per Decide
	c.BreakerThreshold = 2
	c.BreakerCooldown = time.Second
	c.clock = func() time.Time { return now }
	obsVec := make([]float64, abr.ObsSize)

	// Two consecutive retryable failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Decide(obsVec); !errors.Is(err, ErrShed) {
			t.Fatalf("failure %d = %v, want ErrShed via 503", i, err)
		}
	}
	if _, err := c.Decide(obsVec); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker Decide = %v, want ErrBreakerOpen", err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2 (fail-fast must not hit it)", n)
	}

	// Cooldown elapses; the single probe fails and re-opens.
	now = now.Add(1100 * time.Millisecond)
	if _, err := c.Decide(obsVec); !errors.Is(err, ErrShed) {
		t.Fatalf("failed probe = %v, want ErrShed", err)
	}
	if _, err := c.Decide(obsVec); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("breaker not re-opened by the failed probe")
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}

	// Cooldown again; the server has recovered; the probe closes the breaker.
	now = now.Add(1100 * time.Millisecond)
	healthy.Store(true)
	if d, err := c.Decide(obsVec); err != nil || d.Action != 1 {
		t.Fatalf("healthy probe = %+v, %v", d, err)
	}
	if d, err := c.Decide(obsVec); err != nil || d.Action != 1 {
		t.Fatalf("post-close Decide = %+v, %v", d, err)
	}
	if n := hits.Load(); n != 5 {
		t.Fatalf("server saw %d attempts, want 5 (breaker closed)", n)
	}
}

func TestClientBackoffDeterministicAndCapped(t *testing.T) {
	a := NewClientSeeded("http://example.invalid", 7)
	b := NewClientSeeded("http://example.invalid", 7)
	a.BackoffBase, a.BackoffMax = 10*time.Millisecond, 100*time.Millisecond
	b.BackoffBase, b.BackoffMax = 10*time.Millisecond, 100*time.Millisecond
	for i := 0; i < 12; i++ {
		da, db := a.backoffDelay(i), b.backoffDelay(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < 0 || da > 100*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, cap]", i, da)
		}
	}
}

// --- open loop ---------------------------------------------------------

func TestArrivalScheduleDeterministic(t *testing.T) {
	fixed, err := ArrivalSchedule(ArrivalFixed, 1000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range fixed {
		if want := time.Duration(i) * time.Millisecond; off != want {
			t.Fatalf("fixed offset %d = %v, want %v", i, off, want)
		}
	}

	p1, err := ArrivalSchedule(ArrivalPoisson, 500, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := ArrivalSchedule(ArrivalPoisson, 500, 200, 9)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("poisson schedule not a pure function of its seed")
	}
	for i := 1; i < len(p1); i++ {
		if p1[i] < p1[i-1] {
			t.Fatalf("poisson offsets not monotone at %d", i)
		}
	}
	// Mean inter-arrival should be near 1/rate (loose: it is a sample).
	mean := p1[len(p1)-1].Seconds() / float64(len(p1))
	if mean < 0.5/500 || mean > 2.0/500 {
		t.Fatalf("poisson mean inter-arrival %.6fs too far from 1/rate", mean)
	}

	if _, err := ArrivalSchedule(ArrivalFixed, 0, 5, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := ArrivalSchedule("bursty", 100, 5, 1); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

func TestObsPoolDeterministicAndValid(t *testing.T) {
	for _, uc := range core.UseCases {
		p1 := obsPool(uc, env.RL1, 11, 32)
		p2 := obsPool(uc, env.RL1, 11, 32)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s obs pool not deterministic", uc)
		}
		if len(p1) != 32 {
			t.Fatalf("%s pool size = %d, want 32", uc, len(p1))
		}
		for i, o := range p1 {
			if _, err := fallbackDecision(uc, o); err != nil {
				t.Fatalf("%s pool obs %d invalid: %v", uc, i, err)
			}
		}
	}
}

// TestOpenLoopOverloadSheds offers ~5x capacity to a tightly gated server:
// the accounting must be exact, sheds nonzero, responses never torn, and
// the server healthy afterwards — the in-process half of the acceptance
// scenario (the CI chaos job runs the same shape over HTTP).
func TestOpenLoopOverloadSheds(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	inj := faults.New(3)
	inj.Enable(faults.DecideLatency, 1) // every decide takes the spike
	s.Configure(RobustnessOptions{
		MaxInflight:  2,
		ShedWait:     time.Millisecond,
		Injector:     inj,
		LatencySpike: 5 * time.Millisecond,
	})

	rep, err := RunOpenLoop(s, OpenLoopConfig{
		UseCase:    "abr",
		Arrival:    ArrivalFixed,
		RatePerSec: 2000, // capacity is ~2 seats / 5ms = 400/s
		Requests:   200,
		Seed:       11,
		ObsPool:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.OK + rep.Shed + rep.BreakerFast + rep.Timeout + rep.Errors + rep.Torn
	if total != 200 {
		t.Fatalf("accounting: %d outcomes for 200 offered: %+v", total, rep)
	}
	if rep.Torn != 0 {
		t.Fatalf("%d torn responses", rep.Torn)
	}
	if rep.Errors != 0 || rep.Timeout != 0 || rep.BreakerFast != 0 {
		t.Fatalf("unexpected failure classes in-process: %+v", rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("no sheds at 5x capacity: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("no goodput under overload: %+v", rep)
	}
	if reg.Counter(MetricShed).Value() != rep.Shed {
		t.Fatalf("server shed counter %d != report %d", reg.Counter(MetricShed).Value(), rep.Shed)
	}
	if !s.Ready() {
		t.Fatal("server degraded by pure overload (no model faults)")
	}
	if d, err := s.Decide(abrObsWithBuffer(12)); err != nil || d.Fallback {
		t.Fatalf("server unhealthy after overload: %+v, %v", d, err)
	}
}

func TestSaturationSweep(t *testing.T) {
	s, _ := abrServer(t, metrics.NewRegistry())
	inj := faults.New(5)
	inj.Enable(faults.DecideLatency, 1)
	s.Configure(RobustnessOptions{
		MaxInflight:  2,
		ShedWait:     time.Millisecond,
		Injector:     inj,
		LatencySpike: 5 * time.Millisecond,
	})
	rep, err := RunSaturationSweep(s, OpenLoopConfig{
		UseCase:  "abr",
		Arrival:  ArrivalFixed,
		Requests: 80,
		Seed:     17,
		ObsPool:  32,
	}, []float64{2000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("sweep points = %d, want 2", len(rep.Points))
	}
	for i, p := range rep.Points {
		if p.Shed == 0 || p.Torn != 0 {
			t.Fatalf("point %d: shed=%d torn=%d, want sheds and no torn", i, p.Shed, p.Torn)
		}
	}
	if !strings.Contains(rep.String(), "saturation curve (abr)") {
		t.Fatalf("report header: %q", rep.String())
	}
}

// --- error classification ----------------------------------------------

func TestStatusErrorUnwrapsToSentinels(t *testing.T) {
	shed := &StatusError{Code: http.StatusServiceUnavailable, Msg: "overloaded"}
	if !errors.Is(shed, ErrShed) {
		t.Fatal("503 does not unwrap to ErrShed")
	}
	timeout := &StatusError{Code: http.StatusGatewayTimeout, Msg: "deadline"}
	if !errors.Is(timeout, context.DeadlineExceeded) {
		t.Fatal("504 does not unwrap to context.DeadlineExceeded")
	}
	bad := &StatusError{Code: http.StatusBadRequest, Msg: "dims"}
	if errors.Is(bad, ErrShed) || errors.Is(bad, context.DeadlineExceeded) {
		t.Fatal("400 unwraps to a retryable sentinel")
	}
}

// --- helpers -----------------------------------------------------------

func decidePayload(t *testing.T, obsVec []float64) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"obs":[`)
	for i, v := range obsVec {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString(`]}`)
	return b.String()
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
