package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/obs"
)

// Span names and tracks for the serving data plane. Server-side spans render
// on their own Chrome-trace track so a request's admit/decide/fallback
// phases line up as one row in Perfetto; client spans (attempts, backoff
// waits) get a second row. Every span carries obs.ArgTrace, so the span
// trace joins the access log and the latency-histogram exemplars on the
// same 52-bit request ID.
const (
	SpanAdmit    = "serve/admit"
	SpanDecide   = "serve/decide"
	SpanFallback = "serve/fallback"
	SpanSwap     = "serve/swap"

	// ServeSpanTrack and ClientSpanTrack are the Chrome-trace tids serving
	// spans render under (training uses low track numbers).
	ServeSpanTrack  = 90
	ClientSpanTrack = 91
)

// DefaultSampleEvery is the default span-sampling stride: one request in 16
// gets full admit/decide/fallback spans. Sampling bounds recorder pressure
// at high offered load while guaranteeing the latency histogram's exemplars
// (recorded only for sampled requests) always resolve to spans.
const DefaultSampleEvery = 16

// ObserverConfig wires the request-level observability layer. Any nil
// component is simply off: spans without an access log, an access log
// without SLO tracking, and so on.
type ObserverConfig struct {
	// Recorder receives sampled request spans and swap instants. Nil = no
	// spans.
	Recorder *obs.Recorder
	// AccessLog receives one JSONL line per finished request. Nil = no log.
	AccessLog *AccessLog
	// SLO receives per-request outcomes for burn-rate tracking. Nil = no
	// SLO windows.
	SLO *SLOTracker
	// SampleEvery records spans for every Nth request (default 16; 1 = every
	// request).
	SampleEvery int
	// Seed seeds server-side trace minting; seeded runs mint reproducible
	// trace IDs.
	Seed uint64
}

// Observer is the request-level observability layer over a Server: trace
// minting, span sampling, access logging, and SLO accounting. A nil
// *Observer is the canonical "off" value — every method no-ops behind one
// nil check, which is the entire cost the decide hot path pays when
// observability is not opted into (pinned by TestDecideHotPathAllocs).
type Observer struct {
	rec         *obs.Recorder
	log         *AccessLog
	slo         *SLOTracker
	sampleEvery uint64
	seed        uint64
	useCase     string
	start       time.Time
	seq         atomic.Uint64
	logDrops    atomic.Uint64
}

// NewObserver builds an observer from cfg.
func NewObserver(cfg ObserverConfig) *Observer {
	se := uint64(cfg.SampleEvery)
	if se == 0 {
		se = DefaultSampleEvery
	}
	return &Observer{
		rec:         cfg.Recorder,
		log:         cfg.AccessLog,
		slo:         cfg.SLO,
		sampleEvery: se,
		seed:        cfg.Seed,
		start:       time.Now(),
	}
}

// Recorder returns the span recorder (nil when spans are off).
func (o *Observer) Recorder() *obs.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// SLO returns the SLO tracker (nil when off).
func (o *Observer) SLO() *SLOTracker {
	if o == nil {
		return nil
	}
	return o.slo
}

// AccessLogDrops reports access-log lines lost to write errors.
func (o *Observer) AccessLogDrops() uint64 {
	if o == nil {
		return 0
	}
	return o.logDrops.Load()
}

// Mint derives the next trace ID in the observer's seeded stream. The HTTP
// layer uses it so even a request whose body never parses carries a trace ID
// in its error response.
func (o *Observer) Mint() obs.TraceID {
	if o == nil {
		return 0
	}
	return obs.NewTraceID(o.seed, o.seq.Add(1))
}

// admit assigns the request its identity: the trace ID already attached to
// ctx (propagated from a client header or the load generator) or a freshly
// minted one, plus the span-sampling verdict for this request.
func (o *Observer) admit(ctx context.Context) (obs.TraceID, bool) {
	if o == nil {
		return 0, false
	}
	seq := o.seq.Add(1)
	tid := obs.TraceFrom(ctx)
	if tid == 0 {
		tid = obs.NewTraceID(o.seed, seq)
	}
	sampled := o.rec != nil && (seq-1)%o.sampleEvery == 0
	return tid, sampled
}

// span opens a serving span when this request is sampled; otherwise the zero
// no-op Span. Allocation-free on the not-sampled path.
func (o *Observer) span(sampled bool, name string) obs.Span {
	if o == nil || !sampled {
		return obs.Span{}
	}
	return o.rec.StartOn(ServeSpanTrack, name)
}

// endSpan commits a serving span tagged with its trace ID. The arg slice is
// built only past the nil/zero guards, so unsampled requests stay
// allocation-free.
func (o *Observer) endSpan(sp obs.Span, tid obs.TraceID) {
	if o == nil || sp == (obs.Span{}) {
		return
	}
	sp.EndArgs(obs.Arg{K: obs.ArgTrace, V: tid.Float()})
}

// endRequest closes out one request that started at start and took lat:
// SLO accounting and the access-log line. Called exactly once per DecideCtx
// (and once per HTTP-layer bad request), so access-log line counts
// reconcile with the metric counters class for class.
func (o *Observer) endRequest(ctx context.Context, start time.Time, lat time.Duration, tid obs.TraceID, ver uint64, d Decision, err error) {
	if o == nil {
		return
	}
	outcome := OutcomeOf(d, err)
	o.slo.Record(outcome, lat)
	if o.log == nil {
		return
	}
	rec := AccessRecord{
		TS:      start.Sub(o.start).Seconds(),
		Trace:   tid,
		Outcome: outcome,
		UseCase: o.useCase,
		Version: ver,
		LatSec:  lat.Seconds(),
		Attempt: obs.AttemptFrom(ctx),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if werr := o.log.Write(rec); werr != nil {
		o.logDrops.Add(1)
	}
}

// swapInstant marks a swap attempt in the span trace (always recorded —
// swaps are rare and load-bearing).
func (o *Observer) swapInstant(accepted bool, version uint64) {
	if o == nil || !o.rec.Enabled() {
		return
	}
	acc := 0.0
	if accepted {
		acc = 1.0
	}
	o.rec.Instant(SpanSwap, obs.Arg{K: "version", V: float64(version)}, obs.Arg{K: "accepted", V: acc})
}

// OutcomeOf classifies a finished request into its access-log outcome class.
// The classes mirror the metric counters exactly (see the Outcome*
// constants), so a run's access log reconciles against /metrics.
func OutcomeOf(d Decision, err error) string {
	switch {
	case err == nil && d.Fallback:
		return OutcomeFallback
	case err == nil:
		return OutcomeOK
	case errors.Is(err, ErrShed):
		return OutcomeShed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return OutcomeDeadline
	default:
		return OutcomeError
	}
}
