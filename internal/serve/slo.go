package serve

import (
	"sync/atomic"
	"time"
)

// SLOConfig defines the serving objectives the tracker burns against.
//
// Availability is judged over all admitted requests: ok and fallback count as
// served (a degraded decision is still a decision), shed/deadline/error count
// as bad. Latency is judged among served requests only — a shed request has
// no meaningful latency, and folding it in would double-count the outage.
type SLOConfig struct {
	// AvailabilityTarget is the fraction of requests that must be served
	// (default 0.999).
	AvailabilityTarget float64
	// LatencyTarget is the fraction of served requests that must finish
	// under LatencyThreshold (default 0.99).
	LatencyTarget float64
	// LatencyThreshold is the latency objective boundary (default 250ms).
	LatencyThreshold time.Duration
	// Windows are the burn-rate lookbacks (default 1m, 5m, 30m). Multi-window
	// burn is the standard fast-burn/slow-burn alerting shape: the short
	// window catches a cliff, the long window catches a slow leak.
	Windows []time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 250 * time.Millisecond
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// sloSlot aggregates one second of outcomes. Each word packs the low 32
// bits of the unix second it counts above a 32-bit count, so one CAS both
// bumps the count and restarts a word left over from an older second.
type sloSlot struct {
	total  atomic.Uint64 // admitted requests
	served atomic.Uint64 // ok + fallback
	slow   atomic.Uint64 // served but over the latency threshold
}

// bumpSLOWord adds one to w's count for second sec, restarting the count
// when w holds an older second (or nothing yet). It leaves w alone and
// reports false when w already counts a newer second: the caller read its
// clock a whole ring ago, and that second's counts are gone.
func bumpSLOWord(w *atomic.Uint64, sec uint32) bool {
	for {
		old := w.Load()
		next := uint64(sec)<<32 | 1
		if old != 0 {
			switch cur := uint32(old >> 32); {
			case cur == sec:
				next = old + 1
			case int32(cur-sec) > 0:
				return false
			}
		}
		if w.CompareAndSwap(old, next) {
			return true
		}
	}
}

// sloWordCount returns w's count if w counts second sec, else 0.
func sloWordCount(w *atomic.Uint64, sec uint32) int64 {
	v := w.Load()
	if uint32(v>>32) != sec {
		return 0
	}
	return int64(uint32(v))
}

// SLOTracker maintains a per-second ring of outcome counts sized to the
// longest window and computes windowed burn rates on demand. It takes no
// lock: Record is a CAS per counter word, so concurrent requests share no
// mutex on the response path.
type SLOTracker struct {
	cfg   SLOConfig
	slots []sloSlot
}

// NewSLOTracker builds a tracker from cfg (zero fields take defaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	longest := cfg.Windows[0]
	for _, w := range cfg.Windows {
		if w > longest {
			longest = w
		}
	}
	return &SLOTracker{
		cfg:   cfg,
		slots: make([]sloSlot, int(longest/time.Second)+1),
	}
}

// Config returns the tracker's resolved configuration.
func (t *SLOTracker) Config() SLOConfig { return t.cfg }

// Record classifies one finished request into the current second's slot.
// Nil receivers are the canonical "off" and no-op. It bumps total, then
// served, then slow, the reverse of the order window reads them in.
func (t *SLOTracker) Record(outcome string, lat time.Duration) {
	if t == nil {
		return
	}
	now := t.cfg.Clock().Unix()
	s := &t.slots[now%int64(len(t.slots))]
	sec := uint32(now)
	if !bumpSLOWord(&s.total, sec) {
		return
	}
	switch outcome {
	case OutcomeOK, OutcomeFallback:
		if bumpSLOWord(&s.served, sec) && lat > t.cfg.LatencyThreshold {
			bumpSLOWord(&s.slow, sec)
		}
	}
}

// WindowBurn is the burn-rate report for one lookback window.
//
// Burn rate is the standard SRE form: observed bad fraction divided by the
// error budget (1 - target). Burn 1.0 spends the budget exactly at the rate
// the objective allows; burn N spends it N times faster.
type WindowBurn struct {
	Window           time.Duration `json:"window"`
	Total            int64         `json:"total"`
	Served           int64         `json:"served"`
	Slow             int64         `json:"slow"`
	Availability     float64       `json:"availability"`      // served/total (1 when idle)
	LatencyOK        float64       `json:"latency_ok"`        // fraction of served under threshold
	AvailabilityBurn float64       `json:"availability_burn"` // bad_frac / (1-target)
	LatencyBurn      float64       `json:"latency_burn"`      // slow_frac / (1-target)
}

// SLOReport is the full /slo payload.
type SLOReport struct {
	AvailabilityTarget float64      `json:"availability_target"`
	LatencyTarget      float64      `json:"latency_target"`
	LatencyThresholdMS float64      `json:"latency_threshold_ms"`
	Windows            []WindowBurn `json:"windows"`
}

// Report computes burn rates for every configured window as of now.
func (t *SLOTracker) Report() SLOReport {
	rep := SLOReport{
		AvailabilityTarget: t.cfg.AvailabilityTarget,
		LatencyTarget:      t.cfg.LatencyTarget,
		LatencyThresholdMS: float64(t.cfg.LatencyThreshold) / float64(time.Millisecond),
	}
	now := t.cfg.Clock().Unix()
	for _, w := range t.cfg.Windows {
		rep.Windows = append(rep.Windows, t.window(now, w))
	}
	return rep
}

// Burn returns the availability burn for a single window (a convenience for
// gauges). Zero for a nil tracker.
func (t *SLOTracker) Burn(w time.Duration) (avail, latency float64) {
	if t == nil {
		return 0, 0
	}
	wb := t.window(t.cfg.Clock().Unix(), w)
	return wb.AvailabilityBurn, wb.LatencyBurn
}

// window sums the slots of the w-long lookback ending at second now. Each
// slot is read slow, then served, then total — the reverse of Record's
// order — so the sums keep slow <= served <= total against concurrent
// writers.
func (t *SLOTracker) window(now int64, w time.Duration) WindowBurn {
	wb := WindowBurn{Window: w, Availability: 1, LatencyOK: 1}
	secs := int64(w / time.Second)
	if secs > int64(len(t.slots)) {
		secs = int64(len(t.slots))
	}
	for i := int64(0); i < secs; i++ {
		sec := now - i
		s := &t.slots[sec%int64(len(t.slots))]
		wb.Slow += sloWordCount(&s.slow, uint32(sec))
		wb.Served += sloWordCount(&s.served, uint32(sec))
		wb.Total += sloWordCount(&s.total, uint32(sec))
	}
	if wb.Total > 0 {
		wb.Availability = float64(wb.Served) / float64(wb.Total)
		badFrac := 1 - wb.Availability
		wb.AvailabilityBurn = badFrac / (1 - t.cfg.AvailabilityTarget)
	}
	if wb.Served > 0 {
		wb.LatencyOK = 1 - float64(wb.Slow)/float64(wb.Served)
		wb.LatencyBurn = (1 - wb.LatencyOK) / (1 - t.cfg.LatencyTarget)
	}
	return wb
}
