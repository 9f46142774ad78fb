package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// instrumentedServer builds an abr server with the full observability layer:
// registry, recorder, access log, and SLO tracker, sampling every request.
func instrumentedServer(t *testing.T) (*Server, *Observer, string) {
	t.Helper()
	reg := metrics.NewRegistry()
	s, _ := abrServer(t, reg)
	logPath := filepath.Join(t.TempDir(), "access.jsonl")
	al, err := OpenAccessLog(logPath, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	o := NewObserver(ObserverConfig{
		Recorder:    obs.NewRecorder(4096),
		AccessLog:   al,
		SLO:         NewSLOTracker(SLOConfig{}),
		SampleEvery: 1,
		Seed:        7,
	})
	s.Instrument(o)
	return s, o, logPath
}

// TestObservedOutcomesReconcile drives every outcome class through an
// instrumented server and asserts the access log reconciles exactly with the
// /metrics counters — the acceptance criterion for the observability layer.
func TestObservedOutcomesReconcile(t *testing.T) {
	s, o, logPath := instrumentedServer(t)
	good := make([]float64, abr.ObsSize)

	// ok x5
	for i := 0; i < 5; i++ {
		if _, err := s.Decide(good); err != nil {
			t.Fatal(err)
		}
	}
	// error x2 (dimension mismatch)
	for i := 0; i < 2; i++ {
		if _, err := s.Decide(make([]float64, abr.ObsSize+1)); err == nil {
			t.Fatal("dim mismatch accepted")
		}
	}
	// deadline x1 (pre-expired context)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DecideCtx(ctx, good); err == nil {
		t.Fatal("canceled context served")
	}
	// fallback x3 (quarantined model)
	s.deg.quarantine()
	for i := 0; i < 3; i++ {
		d, err := s.Decide(good)
		if err != nil || !d.Fallback {
			t.Fatalf("expected fallback decision, got %+v, %v", d, err)
		}
	}

	if err := o.log.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, r := range recs {
		counts[r.Outcome]++
		if r.Trace == 0 {
			t.Fatalf("record without trace: %+v", r)
		}
		if r.UseCase != "abr" {
			t.Fatalf("record usecase = %q", r.UseCase)
		}
	}
	snap := s.Snapshot()
	decisions := snap.Counters[MetricDecisions]
	fallbacks := snap.Counters[MetricFallbacks]
	if counts[OutcomeOK]+counts[OutcomeFallback] != decisions {
		t.Fatalf("ok+fallback lines %d+%d != decisions_total %d",
			counts[OutcomeOK], counts[OutcomeFallback], decisions)
	}
	if counts[OutcomeFallback] != fallbacks {
		t.Fatalf("fallback lines %d != fallback_decisions_total %d", counts[OutcomeFallback], fallbacks)
	}
	if counts[OutcomeError] != snap.Counters[MetricDecideErrors]+snap.Counters[MetricBadRequests] {
		t.Fatalf("error lines %d != decide_errors %d + bad_requests %d",
			counts[OutcomeError], snap.Counters[MetricDecideErrors], snap.Counters[MetricBadRequests])
	}
	if counts[OutcomeDeadline] != snap.Counters[MetricDeadlineExceeded] {
		t.Fatalf("deadline lines %d != deadline_exceeded_total %d",
			counts[OutcomeDeadline], snap.Counters[MetricDeadlineExceeded])
	}
	if counts[OutcomeShed] != snap.Counters[MetricShed] {
		t.Fatalf("shed lines %d != shed_total %d", counts[OutcomeShed], snap.Counters[MetricShed])
	}

	// SLO burn gauges surfaced on the snapshot (sheds/errors above burned
	// availability budget).
	if snap.Gauges["serve/slo_availability_burn_60s"] <= 0 {
		t.Fatalf("availability burn gauge missing: %v", snap.Gauges)
	}
}

// TestExemplarResolvesToSpans pins the exemplar contract: the trace ID the
// p99 histogram bucket names must have spans in the recorder (exemplars are
// only recorded for sampled requests).
func TestExemplarResolvesToSpans(t *testing.T) {
	s, o, _ := instrumentedServer(t)
	good := make([]float64, abr.ObsSize)
	for i := 0; i < 50; i++ {
		if _, err := s.Decide(good); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	h, ok := snap.Histograms[MetricDecideSeconds]
	if !ok {
		t.Fatal("no decide histogram")
	}
	ex := h.ExemplarNear(0.99)
	if ex == 0 {
		t.Fatal("p99 bucket has no exemplar despite sampling every request")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, obs.SpansFile)
	if err := o.Recorder().WriteTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	tf, err := obs.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tf.TraceEvents {
		if obs.TraceIDFromFloat(ev.Args[obs.ArgTrace]) == obs.TraceID(ex) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("exemplar trace %013x has no spans among %d events", ex, len(tf.TraceEvents))
	}
}

// TestClientTracePropagation covers the satellite: all retry attempts of one
// logical request share a single trace ID and carry distinct ascending
// attempt indices.
func TestClientTracePropagation(t *testing.T) {
	var mu sync.Mutex
	var traces []string
	var attempts []int
	fails := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traces = append(traces, r.Header.Get(TraceHeader))
		a, _ := strconv.Atoi(r.Header.Get(AttemptHeader))
		attempts = append(attempts, a)
		n := len(traces)
		mu.Unlock()
		if n <= fails {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Decision{Action: 1, ModelVersion: 1})
	}))
	defer ts.Close()

	c := NewClientSeeded(ts.URL, 42)
	c.BackoffBase = time.Millisecond
	c.BackoffMax = 2 * time.Millisecond
	c.Recorder = obs.NewRecorder(256)
	want := obs.NewTraceID(99, 1)
	ctx := obs.WithTrace(context.Background(), want)
	if _, err := c.DecideCtx(ctx, make([]float64, abr.ObsSize)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(traces) != fails+1 {
		t.Fatalf("saw %d attempts, want %d", len(traces), fails+1)
	}
	for i, tr := range traces {
		if tr != want.String() {
			t.Fatalf("attempt %d carried trace %q, want %q", i, tr, want)
		}
		if attempts[i] != i {
			t.Fatalf("attempt index %d reported as %d", i, attempts[i])
		}
	}
	// Client spans attached to the same trace.
	st := c.Recorder.Stats()
	if st.Total == 0 {
		t.Fatal("client recorded no spans")
	}
}

// TestDecideMasksWideTraceID: an in-process caller attaching an ID wider
// than TraceIDBits gets its low 52 bits logged, so the access log stays
// readable.
func TestDecideMasksWideTraceID(t *testing.T) {
	s, _, logPath := instrumentedServer(t)
	ctx := obs.WithTrace(context.Background(), 1<<60|5)
	if _, err := s.DecideCtx(ctx, make([]float64, abr.ObsSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.obsrv.log.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Trace != 0x5 {
		t.Fatalf("access log = %+v, want one line with trace 0x5", recs)
	}
}

// TestDecideLatencyReadOnce: the latency histogram and the access log
// record one request's latency from the same clock reading.
func TestDecideLatencyReadOnce(t *testing.T) {
	s, o, logPath := instrumentedServer(t)
	if _, err := s.Decide(make([]float64, abr.ObsSize)); err != nil {
		t.Fatal(err)
	}
	if err := o.log.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Snapshot().Histograms[MetricDecideSeconds]
	if len(recs) != 1 || h.Count != 1 || h.Sum != recs[0].LatSec {
		t.Fatalf("histogram count %d sum %v, access log %+v: want one line with lat_s == sum", h.Count, h.Sum, recs)
	}
}

// TestClientMintsTraceWhenAbsent: a context without a trace still produces a
// consistent trace across retries (minted client-side).
func TestClientMintsTraceWhenAbsent(t *testing.T) {
	var mu sync.Mutex
	var traces []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traces = append(traces, r.Header.Get(TraceHeader))
		n := len(traces)
		mu.Unlock()
		if n == 1 {
			http.Error(w, "shed", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(Decision{Action: 1, ModelVersion: 1})
	}))
	defer ts.Close()
	c := NewClientSeeded(ts.URL, 42)
	c.BackoffBase = time.Millisecond
	if _, err := c.Decide(make([]float64, abr.ObsSize)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 2 || traces[0] == "" || traces[0] != traces[1] {
		t.Fatalf("minted trace not stable across retries: %v", traces)
	}
}

// TestHTTPDecideBadBodies covers the satellite table: malformed, oversized,
// and empty bodies all get a structured JSON error carrying an outcome class
// and trace ID, and tick the bad-request counter.
func TestHTTPDecideBadBodies(t *testing.T) {
	s, _, _ := instrumentedServer(t)
	h := NewHandler(s)

	big := `{"obs": [` + strings.Repeat("0.1,", maxDecideBody/4) + `0.1]}`
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"obs": [0.1,`},
		{"empty", ``},
		{"not-json", `hello`},
		{"oversized", big},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/decide", strings.NewReader(tc.body))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", rw.Code)
			}
			var body ErrorBody
			if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
				t.Fatalf("unstructured error body %q: %v", rw.Body.String(), err)
			}
			if body.Outcome != OutcomeError || body.Error == "" {
				t.Fatalf("error body = %+v", body)
			}
			if body.Trace == "" {
				t.Fatal("error body missing trace id")
			}
			if got := rw.Header().Get(TraceHeader); got != body.Trace {
				t.Fatalf("response header trace %q != body trace %q", got, body.Trace)
			}
		})
	}
	snap := s.Snapshot()
	if snap.Counters[MetricBadRequests] != int64(len(cases)) {
		t.Fatalf("bad_requests_total = %d, want %d", snap.Counters[MetricBadRequests], len(cases))
	}
}

// TestHTTPTraceHeaderRoundTrip: a provided trace is honored and echoed; an
// absent one is minted; /decide errors carry it too.
func TestHTTPTraceHeaderRoundTrip(t *testing.T) {
	s, _, _ := instrumentedServer(t)
	h := NewHandler(s)

	// Provided trace echoes back on a success.
	want := obs.NewTraceID(5, 5)
	body, _ := json.Marshal(DecideRequest{Obs: make([]float64, abr.ObsSize)})
	req := httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body))
	req.Header.Set(TraceHeader, want.String())
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
	}
	if got := rw.Header().Get(TraceHeader); got != want.String() {
		t.Fatalf("trace not echoed: %q", got)
	}

	// Absent trace gets minted.
	req = httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body))
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Header().Get(TraceHeader) == "" {
		t.Fatal("no trace minted")
	}

	// A dimension error response carries the structured body + trace.
	bad, _ := json.Marshal(DecideRequest{Obs: make([]float64, 3)})
	req = httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(bad))
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rw.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rw.Body.Bytes(), &eb); err != nil || eb.Trace == "" || !strings.Contains(eb.Error, "dims") {
		t.Fatalf("error body = %+v (%v)", eb, err)
	}
}

// TestSwapHistory covers the satellite: accepted and rejected swaps land in
// the ring with reasons, and /swaps serves them.
func TestSwapHistory(t *testing.T) {
	reg := metrics.NewRegistry()
	s, path := abrServer(t, reg)
	writeABRModel(t, path, 2)
	if err := s.SwapFrom(path); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapFrom(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file swapped in")
	}

	hist := s.SwapHistory()
	// Initial model publish + accepted swap + rejection.
	if len(hist) != 3 {
		t.Fatalf("history has %d events, want 3: %+v", len(hist), hist)
	}
	if !hist[0].Accepted || hist[0].Version != 1 {
		t.Fatalf("initial publish: %+v", hist[0])
	}
	if !hist[1].Accepted || hist[1].Version != 2 {
		t.Fatalf("accepted swap: %+v", hist[1])
	}
	if hist[2].Accepted || hist[2].Reason == "" || hist[2].Version != 2 {
		t.Fatalf("rejection: %+v", hist[2])
	}

	// /swaps serves the same history.
	h := NewHandler(s)
	req := httptest.NewRequest(http.MethodGet, "/swaps", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("/swaps status %d", rw.Code)
	}
	var got []SwapEvent
	if err := json.NewDecoder(rw.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Reason == "" {
		t.Fatalf("/swaps body: %+v", got)
	}

	// Ring wraps without growing.
	for i := 0; i < 2*swapHistoryCap; i++ {
		s.SwapFrom(filepath.Join(t.TempDir(), "missing.bin"))
	}
	if n := len(s.SwapHistory()); n != swapHistoryCap {
		t.Fatalf("ring grew to %d", n)
	}
}

// TestSLOEndpoint: /slo serves the report when tracking is on and 404s when
// off.
func TestSLOEndpoint(t *testing.T) {
	s, _, _ := instrumentedServer(t)
	if _, err := s.Decide(make([]float64, abr.ObsSize)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s)
	req := httptest.NewRequest(http.MethodGet, "/slo", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("/slo status %d", rw.Code)
	}
	var rep SLOReport
	if err := json.NewDecoder(rw.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) == 0 || rep.AvailabilityTarget == 0 {
		t.Fatalf("slo report: %+v", rep)
	}

	// Uninstrumented server: 404.
	plain, _ := abrServer(t, nil)
	rw = httptest.NewRecorder()
	NewHandler(plain).ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/slo", nil))
	if rw.Code != http.StatusNotFound {
		t.Fatalf("uninstrumented /slo status %d", rw.Code)
	}
}

// TestOpenLoopTracesServer: the loadgen's per-request traces land in the
// server's access log, so sweep tail latency attributes to cause.
func TestOpenLoopTracesServer(t *testing.T) {
	s, o, logPath := instrumentedServer(t)
	rep, err := RunOpenLoop(s, OpenLoopConfig{
		UseCase:    "abr",
		RatePerSec: 2000,
		Requests:   100,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("no successes: %+v", rep)
	}
	if len(rep.Slowest) == 0 || rep.Slowest[0].Trace == 0 {
		t.Fatalf("slowest traces missing: %+v", rep.Slowest)
	}
	if rep.Max < rep.P999 || rep.P999 < rep.P99 {
		t.Fatalf("percentile ordering broken: p99=%v p99.9=%v max=%v", rep.P99, rep.P999, rep.Max)
	}
	if _, ok := rep.Outcomes[OutcomeOK]; !ok {
		t.Fatalf("per-outcome latencies missing: %+v", rep.Outcomes)
	}
	if err := o.log.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("access log has %d lines, want 100", len(recs))
	}
	byTrace := map[obs.TraceID]bool{}
	for _, r := range recs {
		byTrace[r.Trace] = true
	}
	for _, slow := range rep.Slowest {
		if !byTrace[slow.Trace] {
			t.Fatalf("slowest trace %v not in server access log", slow.Trace)
		}
	}
}
