package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func sloUnderTest(clk *fakeClock) *SLOTracker {
	return NewSLOTracker(SLOConfig{
		AvailabilityTarget: 0.99,
		LatencyTarget:      0.9,
		LatencyThreshold:   100 * time.Millisecond,
		Windows:            []time.Duration{time.Minute, 5 * time.Minute},
		Clock:              clk.Now,
	})
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSLOTrackerBurnMath(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	slo := sloUnderTest(clk)

	// 90 ok, 5 fallback (still served), 5 shed: availability 95/100.
	for i := 0; i < 90; i++ {
		slo.Record(OutcomeOK, 10*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		slo.Record(OutcomeFallback, 10*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		slo.Record(OutcomeShed, 0)
	}
	rep := slo.Report()
	w := rep.Windows[0]
	if w.Total != 100 || w.Served != 95 {
		t.Fatalf("window counts = %+v", w)
	}
	if !approx(w.Availability, 0.95) {
		t.Fatalf("availability = %v", w.Availability)
	}
	// Bad fraction 0.05 against a 0.01 budget: burn 5.
	if !approx(w.AvailabilityBurn, 5.0) {
		t.Fatalf("availability burn = %v, want 5", w.AvailabilityBurn)
	}
	if w.Slow != 0 || w.LatencyBurn != 0 {
		t.Fatalf("unexpected latency burn: %+v", w)
	}

	// 19 more fast served + 19 slow: slow fraction 19/133 over a 0.1 budget.
	for i := 0; i < 19; i++ {
		slo.Record(OutcomeOK, time.Millisecond)
		slo.Record(OutcomeOK, 200*time.Millisecond)
	}
	w = slo.Report().Windows[0]
	wantSlowFrac := 19.0 / 133.0
	if !approx(w.LatencyBurn, wantSlowFrac/0.1) {
		t.Fatalf("latency burn = %v, want %v", w.LatencyBurn, wantSlowFrac/0.1)
	}
}

func TestSLOTrackerWindowing(t *testing.T) {
	clk := &fakeClock{now: time.Unix(2_000_000, 0)}
	slo := sloUnderTest(clk)

	// A burst of sheds, then two minutes of quiet: the 1m window must forget
	// it while the 5m window still burns.
	for i := 0; i < 10; i++ {
		slo.Record(OutcomeShed, 0)
	}
	clk.Advance(2 * time.Minute)
	rep := slo.Report()
	if rep.Windows[0].Total != 0 {
		t.Fatalf("1m window still holds %d requests", rep.Windows[0].Total)
	}
	if rep.Windows[1].Total != 10 || rep.Windows[1].AvailabilityBurn <= 0 {
		t.Fatalf("5m window lost the burst: %+v", rep.Windows[1])
	}

	// After the long window passes, the ring reuses slots cleanly.
	clk.Advance(10 * time.Minute)
	slo.Record(OutcomeOK, time.Millisecond)
	rep = slo.Report()
	if rep.Windows[1].Total != 1 || rep.Windows[1].AvailabilityBurn != 0 {
		t.Fatalf("stale slots leaked into window: %+v", rep.Windows[1])
	}
}

func TestSLOTrackerIdleAndNil(t *testing.T) {
	clk := &fakeClock{now: time.Unix(3_000_000, 0)}
	slo := sloUnderTest(clk)
	rep := slo.Report()
	for _, w := range rep.Windows {
		if w.Availability != 1 || w.LatencyOK != 1 || w.AvailabilityBurn != 0 {
			t.Fatalf("idle window not clean: %+v", w)
		}
	}
	var nilTracker *SLOTracker
	nilTracker.Record(OutcomeOK, time.Second) // must not panic
	if a, l := nilTracker.Burn(time.Minute); a != 0 || l != 0 {
		t.Fatalf("nil tracker burned %v/%v", a, l)
	}
}

func TestSLOConfigDefaults(t *testing.T) {
	cfg := SLOConfig{}.withDefaults()
	if cfg.AvailabilityTarget != 0.999 || cfg.LatencyTarget != 0.99 {
		t.Fatalf("default targets: %+v", cfg)
	}
	if cfg.LatencyThreshold != 250*time.Millisecond || len(cfg.Windows) != 3 {
		t.Fatalf("default threshold/windows: %+v", cfg)
	}
}

// TestSLOTrackerConcurrentRecordExact drives Record from several goroutines
// under a clock that moves one second every sloTicksPerSec readings, so
// seconds change while writers are mid-Record and every slot starts out
// holding an older second that the writers must restart. No count may be
// lost: each second holds exactly sloTicksPerSec requests. Every request is
// served and slow, so total, served and slow are equal at rest, and a
// concurrent Report (through a view of the same ring whose clock does not
// tick) that read them in the wrong order would see slow > served or
// served > total.
func TestSLOTrackerConcurrentRecordExact(t *testing.T) {
	const (
		writers        = 4
		perWriter      = 3000
		sloTicksPerSec = 1000
		base           = 5_000_000
	)
	var ticks atomic.Int64
	slo := NewSLOTracker(SLOConfig{
		LatencyThreshold: 100 * time.Millisecond,
		Windows:          []time.Duration{time.Minute},
		Clock: func() time.Time {
			return time.Unix(base+(ticks.Add(1)-1)/sloTicksPerSec, 0)
		},
	})
	// Fill every slot with an older second.
	for sec := int64(base - len(slo.slots)); sec < base; sec++ {
		s := &slo.slots[sec%int64(len(slo.slots))]
		for _, w := range []*atomic.Uint64{&s.total, &s.served, &s.slow} {
			bumpSLOWord(w, uint32(sec))
		}
	}
	view := &SLOTracker{cfg: slo.cfg, slots: slo.slots}
	view.cfg.Clock = func() time.Time {
		return time.Unix(base+ticks.Load()/sloTicksPerSec, 0)
	}

	done := make(chan struct{})
	var reporter sync.WaitGroup
	reporter.Add(1)
	go func() {
		defer reporter.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, w := range view.Report().Windows {
				if w.Slow > w.Served || w.Served > w.Total {
					t.Errorf("report saw slow %d, served %d, total %d", w.Slow, w.Served, w.Total)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				outcome := OutcomeOK
				if i%2 == 1 {
					outcome = OutcomeFallback
				}
				slo.Record(outcome, time.Second)
			}
		}()
	}
	wg.Wait()
	close(done)
	reporter.Wait()

	const seconds = writers * perWriter / sloTicksPerSec
	for sec := int64(base); sec < base+seconds; sec++ {
		if got := slo.window(sec, time.Second).Total; got != sloTicksPerSec {
			t.Errorf("second %d holds %d requests, want %d", sec-base, got, sloTicksPerSec)
		}
	}
	all := slo.window(base+seconds-1, seconds*time.Second)
	if n := int64(writers * perWriter); all.Total != n || all.Served != n || all.Slow != n {
		t.Fatalf("totals %d/%d/%d (total/served/slow), want %d each", all.Total, all.Served, all.Slow, n)
	}
}

// TestBumpSLOWord pins the packed word's transitions: an empty or older
// word restarts at 1, the same second counts up, and a newer second is left
// alone (a writer a whole ring late drops its count rather than clobber).
func TestBumpSLOWord(t *testing.T) {
	var w atomic.Uint64
	for _, step := range []struct {
		sec    uint32
		ok     bool
		counts map[uint32]int64
	}{
		{10, true, map[uint32]int64{10: 1}},
		{10, true, map[uint32]int64{10: 2}},
		{13, true, map[uint32]int64{10: 0, 13: 1}},
		{10, false, map[uint32]int64{10: 0, 13: 1}},
		{1 << 31, true, map[uint32]int64{13: 0, 1 << 31: 1}},
	} {
		if ok := bumpSLOWord(&w, step.sec); ok != step.ok {
			t.Fatalf("bump at second %d reported %v, want %v", step.sec, ok, step.ok)
		}
		for sec, want := range step.counts {
			if got := sloWordCount(&w, sec); got != want {
				t.Fatalf("after bump at second %d: count for second %d = %d, want %d", step.sec, sec, got, want)
			}
		}
	}
}
