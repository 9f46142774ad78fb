package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// Metric names the server records. Latency lands in a histogram whose
// buckets drive the p50/p99 gauges on /metrics; swap outcomes are counters
// so a watcher rejecting torn files is visible on a dashboard, not only in
// a log. The overload/degradation counters make the failure story
// measurable: shed and deadline-exceeded requests, model failures, the
// quarantine transitions, and the fallback decisions served while degraded.
const (
	MetricDecideSeconds    = "serve/decide_seconds"
	MetricDecisions        = "serve/decisions_total"
	MetricDecideErrors     = "serve/decide_errors_total"
	MetricSwapsOK          = "serve/swaps_total"
	MetricSwapsRejected    = "serve/swaps_rejected_total"
	MetricModelVersion     = "serve/model_version"
	MetricDecideP50        = "serve/decide_p50_seconds"
	MetricDecideP99        = "serve/decide_p99_seconds"
	MetricShed             = "serve/shed_total"
	MetricDeadlineExceeded = "serve/deadline_exceeded_total"
	MetricDegraded         = "serve/degraded"
	MetricFallbacks        = "serve/fallback_decisions_total"
	MetricQuarantines      = "serve/model_quarantines_total"
	MetricModelFailures    = "serve/model_failures_total"
	MetricInflight         = "serve/inflight"
	MetricWatchErrors      = "serve/watch_errors_total"
	MetricBadRequests      = "serve/bad_requests_total"
)

// RobustnessOptions opts a server into the overload/failure machinery. The
// zero value keeps the pre-robustness behavior: no admission gate, no
// per-request deadline at the HTTP layer, quarantine at its default
// threshold, no fault injection. Configure must be called before the server
// starts taking traffic; it is not synchronized against in-flight decides.
type RobustnessOptions struct {
	// MaxInflight bounds concurrent decisions; excess load is shed with
	// ErrShed (HTTP: 503 + Retry-After). <= 0 disables the gate.
	MaxInflight int
	// ShedWait is how long an arriving request may wait for a seat before
	// being shed. Keep it small — it absorbs jitter, it is not a queue.
	ShedWait time.Duration
	// Deadline is the per-request budget the HTTP handler applies to
	// /decide (0 = none). In-process callers pass their own contexts.
	Deadline time.Duration
	// Degrade tunes the model-quarantine state machine.
	Degrade DegradeConfig
	// Injector arms chaos sites on the serve path (decide-latency,
	// decide-error here; swap-corrupt in SwapFrom). Nil = off.
	Injector *faults.Injector
	// LatencySpike is the stall injected when decide-latency fires
	// (default 50ms).
	LatencySpike time.Duration
}

// Server owns the live policy and answers Decide queries against it. The
// current model lives behind an atomic pointer: decisions never take a
// lock, and a hot swap is one pointer store, so a decision in flight during
// a swap runs entirely against whichever complete model it picked up.
//
// The robustness layer wraps that hot path without slowing it down when
// idle: a nil gate admits in one nil check, the degrader is a couple of
// atomic loads, and fault sites are nil-injector checks.
type Server struct {
	uc      *core.UseCase
	cur     atomic.Pointer[Model]
	swaps   atomic.Uint64 // serving generation counter
	started time.Time

	// swapMu serializes swap attempts (watcher + manual /swap + tests);
	// the decision path never touches it.
	swapMu sync.Mutex

	reg *metrics.Registry
	// The decide path's instruments, resolved once in New so a decision
	// never looks a metric up by name. All nil (no-ops) without a registry.
	decideSeconds                                         *metrics.Histogram
	decisions, decideErrors, fallbacks, shed, deadlineExc *metrics.Counter
	modelFailures, quarantines                            *metrics.Counter

	gate     *Gate
	deg      *degrader
	deadline time.Duration
	inj      *faults.Injector
	spike    time.Duration

	// obsrv is the request-level observability layer (nil = off; the hot
	// path pays one nil check). Set via Instrument before serving traffic.
	obsrv *Observer

	// Swap history: a small always-on ring of accept/reject events so an
	// operator can answer "what swapped, when, and why was it rejected"
	// without scraping logs. histMu guards it; the decide path never touches
	// it.
	histMu   sync.Mutex
	swapHist []SwapEvent
	histNext int
}

// SwapEvent is one entry in the hot-swap history ring exposed at /swaps.
type SwapEvent struct {
	Time     time.Time `json:"time"`
	Version  uint64    `json:"version"` // resulting version when accepted; serving version when rejected
	Accepted bool      `json:"accepted"`
	Reason   string    `json:"reason,omitempty"` // why a candidate was rejected
}

// swapHistoryCap bounds the ring: enough to cover a misbehaving watcher's
// recent churn without unbounded growth.
const swapHistoryCap = 32

// New builds a server for useCase (any case) with an initial model
// (required: a policy server with nothing to serve is a misconfiguration,
// not a state). reg is optional; nil disables telemetry at the usual zero
// cost.
func New(useCase string, m *Model, reg *metrics.Registry) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: initial model is required")
	}
	uc, err := core.LookupUseCase(useCase)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if m.uc != uc {
		return nil, fmt.Errorf("serve: model use case %q does not match server %q", m.uc.Name, uc.Name)
	}
	s := &Server{
		uc:            uc,
		reg:           reg,
		started:       time.Now(),
		decideSeconds: reg.Histogram(MetricDecideSeconds),
		decisions:     reg.Counter(MetricDecisions),
		decideErrors:  reg.Counter(MetricDecideErrors),
		fallbacks:     reg.Counter(MetricFallbacks),
		shed:          reg.Counter(MetricShed),
		deadlineExc:   reg.Counter(MetricDeadlineExceeded),
		modelFailures: reg.Counter(MetricModelFailures),
		quarantines:   reg.Counter(MetricQuarantines),
	}
	s.deg = newDegrader(DegradeConfig{})
	s.spike = 50 * time.Millisecond
	s.swapIn(m)
	return s, nil
}

// Configure applies the robustness options. Call before serving traffic.
func (s *Server) Configure(o RobustnessOptions) {
	s.gate = NewGate(o.MaxInflight, o.ShedWait)
	s.deg = newDegrader(o.Degrade)
	s.deadline = o.Deadline
	s.inj = o.Injector
	if o.LatencySpike > 0 {
		s.spike = o.LatencySpike
	}
}

// Instrument attaches the request-level observability layer: trace minting,
// sampled spans, the access log, and SLO tracking. Call before serving
// traffic (like Configure, it is not synchronized against in-flight
// decides). A nil observer — the default — keeps the decide hot path at its
// uninstrumented cost: a single nil check, pinned by TestDecideHotPathAllocs.
func (s *Server) Instrument(o *Observer) {
	if o != nil {
		o.useCase = s.uc.Name
	}
	s.obsrv = o
}

// Observer returns the attached observability layer (nil = off).
func (s *Server) Observer() *Observer { return s.obsrv }

// UseCase returns the use case this server serves.
func (s *Server) UseCase() string { return s.uc.Name }

// Model returns the currently served model.
func (s *Server) Model() *Model { return s.cur.Load() }

// Swaps returns the serving generation (1 for the initial model, +1 per
// accepted swap).
func (s *Server) Swaps() uint64 { return s.swaps.Load() }

// Ready reports whether the server is serving the learned model at full
// fidelity. It is the /readyz signal: a degraded server keeps answering
// (with fallback decisions) but advertises not-ready so load balancers can
// prefer healthy replicas.
func (s *Server) Ready() bool { return !s.deg.Degraded() }

// Degraded reports whether the model is quarantined.
func (s *Server) Degraded() bool { return s.deg.Degraded() }

// Deadline returns the per-request budget the HTTP layer applies (0 =
// none).
func (s *Server) Deadline() time.Duration { return s.deadline }

// Inflight returns the number of currently admitted decisions (0 without a
// gate).
func (s *Server) Inflight() int { return s.gate.Inflight() }

// Decide evaluates the live policy at obsVec with no caller deadline. It is
// the compatibility entry point for the Decider interface; new callers use
// DecideCtx.
func (s *Server) Decide(obsVec []float64) (Decision, error) {
	return s.DecideCtx(context.Background(), obsVec)
}

// DecideCtx answers one policy query under the caller's context. The
// request is admitted through the gate (shed with ErrShed when the server
// is saturated), checked against the deadline, and evaluated against the
// live model — or the rule-based fallback when the model is quarantined or
// fails on this request. Client errors (wrong observation size) are never
// treated as model failures.
//
// With an Observer attached, the request gets an identity at admission (the
// trace ID propagated on ctx, or a freshly minted one), sampled spans
// around its admit/decide/fallback phases, an access-log line, and SLO
// accounting; the latency histogram records the trace as an exemplar for
// sampled requests. Without one, every hook below is a nil check.
//
// Safe for any number of concurrent callers, including concurrently with
// SwapFrom.
func (s *Server) DecideCtx(ctx context.Context, obsVec []float64) (Decision, error) {
	o := s.obsrv
	var start time.Time
	if s.reg.Enabled() || o != nil {
		start = time.Now()
	}
	tid, sampled := o.admit(ctx)

	sp := o.span(sampled, SpanAdmit)
	if err := s.gate.Acquire(ctx); err != nil {
		o.endSpan(sp, tid)
		s.countAdmissionFailure(err)
		o.endRequest(ctx, start, elapsed(start), tid, 0, Decision{}, err)
		return Decision{}, err
	}
	defer s.gate.Release()
	o.endSpan(sp, tid)

	if err := ctx.Err(); err != nil {
		s.countAdmissionFailure(err)
		o.endRequest(ctx, start, elapsed(start), tid, 0, Decision{}, err)
		return Decision{}, err
	}

	m := s.cur.Load()
	// Validate the request before touching the model: a malformed
	// observation is the client's fault and must not feed quarantine.
	if len(obsVec) != m.ObsSize() {
		s.decideErrors.Inc()
		err := fmt.Errorf("serve: observation has %d dims, %s model wants %d", len(obsVec), s.uc.Name, m.ObsSize())
		o.endRequest(ctx, start, elapsed(start), tid, m.version, Decision{}, err)
		return Decision{}, err
	}

	// Chaos: a latency spike stalls the decide inside its deadline budget.
	if s.inj.Fire(faults.DecideLatency) {
		t := time.NewTimer(s.spike)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.countAdmissionFailure(ctx.Err())
			o.endRequest(ctx, start, elapsed(start), tid, m.version, Decision{}, ctx.Err())
			return Decision{}, ctx.Err()
		}
	}

	if s.deg.Degraded() {
		fsp := o.span(sampled, SpanFallback)
		d, err := s.fallbackDecide(obsVec)
		o.endSpan(fsp, tid)
		s.maybeProbe(m, obsVec)
		lat := elapsed(start)
		s.observeDecide(lat, err, tid, sampled)
		o.endRequest(ctx, start, lat, tid, m.version, d, err)
		return d, err
	}

	dsp := o.span(sampled, SpanDecide)
	d, err := s.modelDecide(m, obsVec)
	o.endSpan(dsp, tid)
	if err != nil {
		// Model failure: count it, maybe quarantine, and keep the client
		// whole with a fallback decision for this request.
		s.modelFailures.Inc()
		if s.deg.recordFailure() && s.deg.quarantine() {
			s.quarantines.Inc()
			if s.reg.Enabled() {
				s.reg.Gauge(MetricDegraded).Set(1)
			}
		}
		fsp := o.span(sampled, SpanFallback)
		d, err = s.fallbackDecide(obsVec)
		o.endSpan(fsp, tid)
		lat := elapsed(start)
		s.observeDecide(lat, err, tid, sampled)
		o.endRequest(ctx, start, lat, tid, m.version, d, err)
		return d, err
	}
	s.deg.recordSuccess()
	lat := elapsed(start)
	s.observeDecide(lat, nil, tid, sampled)
	o.endRequest(ctx, start, lat, tid, m.version, d, nil)
	return d, nil
}

// modelDecide evaluates the learned model with the failure containment the
// data plane needs: panics become errors, non-finite or out-of-range
// outputs are rejected, and the decide-error chaos site can force a
// failure. Any error return here is a *model* failure (inputs were already
// validated).
func (s *Server) modelDecide(m *Model, obsVec []float64) (d Decision, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: model decide panic: %v", r)
		}
	}()
	if s.inj.Fire(faults.DecideError) {
		return Decision{}, faults.Injected{Site: faults.DecideError}
	}
	d, err = m.Decide(obsVec)
	if err != nil {
		return Decision{}, err
	}
	if m.Discrete() {
		if d.Action < 0 || d.Action >= m.NumActions() {
			return Decision{}, fmt.Errorf("serve: model produced out-of-range action %d", d.Action)
		}
	} else {
		for _, v := range d.ActionVec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Decision{}, fmt.Errorf("serve: model produced non-finite action %v", v)
			}
		}
	}
	return d, nil
}

// fallbackDecide serves the rule-based degraded-mode decision.
func (s *Server) fallbackDecide(obsVec []float64) (Decision, error) {
	d, err := fallbackDecision(s.uc, obsVec)
	if err == nil {
		s.fallbacks.Inc()
	}
	return d, err
}

// maybeProbe, in degraded mode, evaluates the quarantined model off the
// response path on every Nth arrival; enough consecutive good probes
// restore full service.
func (s *Server) maybeProbe(m *Model, obsVec []float64) {
	if !s.deg.shouldProbe() {
		return
	}
	_, perr := s.modelDecide(m, obsVec)
	if s.deg.probeResult(perr == nil) {
		if s.reg.Enabled() {
			s.reg.Gauge(MetricDegraded).Set(0)
		}
	}
}

// countAdmissionFailure classifies a pre-decide failure: shed vs deadline.
func (s *Server) countAdmissionFailure(err error) {
	if !s.reg.Enabled() {
		return
	}
	if errors.Is(err, ErrShed) {
		s.shed.Inc()
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.deadlineExc.Inc()
	}
}

// elapsed reads the end-of-request clock for a request that started at
// start: once per request, so the latency histogram and the access log
// record the same latency. Zero when start was never read (nothing observes
// the request).
func elapsed(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// observeDecide records latency and outcome for an admitted request. When
// the request is span-sampled, its trace ID rides into the histogram bucket
// as an exemplar — the p99 bucket then names a concrete trace whose spans
// are guaranteed to be in the recorder.
func (s *Server) observeDecide(lat time.Duration, err error, tid obs.TraceID, sampled bool) {
	if !s.reg.Enabled() {
		return
	}
	if sampled && tid != 0 {
		s.decideSeconds.ObserveExemplar(lat.Seconds(), uint64(tid))
	} else {
		s.decideSeconds.Observe(lat.Seconds())
	}
	if err != nil {
		s.decideErrors.Inc()
	} else {
		s.decisions.Inc()
	}
}

// swapIn publishes m as the live model under the next serving generation.
func (s *Server) swapIn(m *Model) {
	v := s.swaps.Add(1)
	m.version = v
	s.cur.Store(m)
	if s.reg.Enabled() {
		s.reg.Gauge(MetricModelVersion).Set(float64(v))
	}
	s.recordSwapEvent(SwapEvent{Time: time.Now(), Version: v, Accepted: true})
	s.obsrv.swapInstant(true, v)
}

// recordSwapEvent appends to the swap-history ring, dropping the oldest
// entry once full.
func (s *Server) recordSwapEvent(ev SwapEvent) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if len(s.swapHist) < swapHistoryCap {
		s.swapHist = append(s.swapHist, ev)
		return
	}
	s.swapHist[s.histNext] = ev
	s.histNext = (s.histNext + 1) % swapHistoryCap
}

// SwapHistory returns the recent swap accept/reject events, oldest first —
// the /swaps response body.
func (s *Server) SwapHistory() []SwapEvent {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	out := make([]SwapEvent, 0, len(s.swapHist))
	out = append(out, s.swapHist[s.histNext:]...)
	out = append(out, s.swapHist[:s.histNext]...)
	return out
}

// Swap validates m against the server's use case and publishes it.
// In-process callers (tests, embedding services) use this; file-driven
// swaps go through SwapFrom.
func (s *Server) Swap(m *Model) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if m == nil || m.uc != s.uc {
		s.rejectSwap("model use case does not match server")
		return fmt.Errorf("serve: swap rejected: model use case does not match server %q", s.uc.Name)
	}
	s.swapIn(m)
	if s.reg.Enabled() {
		s.reg.Counter(MetricSwapsOK).Inc()
	}
	return nil
}

// SwapFrom loads, validates, and publishes the model at path. On any
// failure — unreadable, torn, corrupt, or architecture-mismatched file —
// the live model keeps serving, the rejection counter ticks, and the error
// describes what was wrong with the candidate. The rename-based writers
// (ckpt.AtomicWriteFile) guarantee a reader here never sees a partial
// write from a well-behaved producer; this validation is the backstop for
// everything else (partial copies, wrong files, version skew). The
// swap-corrupt chaos site forces that backstop to fire, proving a fault
// storm cannot push a bad candidate live.
func (s *Server) SwapFrom(path string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	m, err := LoadModel(s.uc.Name, path)
	if err == nil && s.inj.Fire(faults.SwapCorrupt) {
		m, err = nil, faults.Injected{Site: faults.SwapCorrupt}
	}
	if err != nil {
		s.rejectSwap(err.Error())
		return fmt.Errorf("serve: swap rejected, keeping model v%d: %w", s.swaps.Load(), err)
	}
	s.swapIn(m)
	if s.reg.Enabled() {
		s.reg.Counter(MetricSwapsOK).Inc()
	}
	return nil
}

// rejectSwap records a rejected candidate: the counter, the history ring
// (with the reason, so /swaps explains itself), and a span instant.
func (s *Server) rejectSwap(reason string) {
	if s.reg.Enabled() {
		s.reg.Counter(MetricSwapsRejected).Inc()
	}
	v := s.swaps.Load()
	s.recordSwapEvent(SwapEvent{Time: time.Now(), Version: v, Reason: reason})
	s.obsrv.swapInstant(false, v)
}

// Snapshot returns the metrics snapshot with the decision-latency p50/p99
// gauges refreshed from the histogram and the degraded/inflight gauges
// refreshed from live state — the exposition /metrics serves. With
// telemetry disabled it returns a zero snapshot.
func (s *Server) Snapshot() metrics.Snapshot {
	snap := s.reg.Snapshot()
	if !s.reg.Enabled() {
		return snap
	}
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]float64, 4)
	}
	if h, ok := snap.Histograms[MetricDecideSeconds]; ok && h.Count > 0 {
		snap.Gauges[MetricDecideP50] = h.Quantile(0.50)
		snap.Gauges[MetricDecideP99] = h.Quantile(0.99)
	}
	if s.deg.Degraded() {
		snap.Gauges[MetricDegraded] = 1
	} else {
		snap.Gauges[MetricDegraded] = 0
	}
	if s.gate != nil {
		snap.Gauges[MetricInflight] = float64(s.gate.Inflight())
	}
	if o := s.obsrv; o != nil && o.slo != nil {
		for _, w := range o.slo.Report().Windows {
			suffix := fmt.Sprintf("%ds", int(w.Window.Seconds()))
			snap.Gauges["serve/slo_availability_burn_"+suffix] = w.AvailabilityBurn
			snap.Gauges["serve/slo_latency_burn_"+suffix] = w.LatencyBurn
		}
	}
	return snap
}

// Info is the /model response body: what is being served right now.
type Info struct {
	UseCase      string  `json:"usecase"`
	ModelVersion uint64  `json:"model_version"`
	ObsSize      int     `json:"obs_size"`
	Discrete     bool    `json:"discrete"`
	NumActions   int     `json:"num_actions,omitempty"`
	ActionDim    int     `json:"action_dim,omitempty"`
	Decisions    int64   `json:"decisions"`
	SwapsOK      int64   `json:"swaps_ok"`
	SwapsReject  int64   `json:"swaps_rejected"`
	Degraded     bool    `json:"degraded,omitempty"`
	Shed         int64   `json:"shed,omitempty"`
	UptimeSec    float64 `json:"uptime_sec"`
}

// Info assembles the current serving state.
func (s *Server) Info() Info {
	m := s.cur.Load()
	info := Info{
		UseCase:      s.uc.Name,
		ModelVersion: m.version,
		ObsSize:      m.ObsSize(),
		Discrete:     m.Discrete(),
		NumActions:   m.NumActions(),
		ActionDim:    m.ActionDim(),
		Degraded:     s.deg.Degraded(),
		UptimeSec:    time.Since(s.started).Seconds(),
	}
	if s.reg.Enabled() {
		info.Decisions = s.decisions.Value()
		info.SwapsOK = s.reg.Counter(MetricSwapsOK).Value()
		info.SwapsReject = s.reg.Counter(MetricSwapsRejected).Value()
		info.Shed = s.shed.Value()
	}
	return info
}
