package cc

import (
	"math"
)

// Cubic approximates TCP Cubic at monitor-interval granularity: a
// cwnd-driven sender whose window grows along the cubic curve and backs off
// multiplicatively on any observed loss. Because it cannot distinguish
// random loss from congestion loss, it collapses on lossy links — the
// behaviour §4.2 and §7 of the paper call out.
type Cubic struct {
	// Beta is the multiplicative decrease factor (default 0.7).
	Beta float64
	// C is the cubic scaling constant (default 0.4).
	C float64

	cwndMbit    float64 // window in Mbit
	wMax        float64
	epochStart  float64
	lastElapsed float64
	baseRTT     float64
}

// NewCubic returns a Cubic sender with standard constants.
func NewCubic() *Cubic { return &Cubic{Beta: 0.7, C: 0.4} }

// Name implements Sender.
func (*Cubic) Name() string { return "Cubic" }

// Reset implements Sender.
func (c *Cubic) Reset(initRate, baseRTT float64) {
	if c.Beta == 0 {
		c.Beta = 0.7
	}
	if c.C == 0 {
		c.C = 0.4
	}
	c.baseRTT = baseRTT
	c.cwndMbit = initRate * baseRTT
	c.wMax = c.cwndMbit
	c.epochStart = 0
	c.lastElapsed = 0
}

// OnMI implements Sender.
func (c *Cubic) OnMI(s MIStats) float64 {
	c.lastElapsed = s.Elapsed
	if s.LossRate > 0.001 {
		// Loss event: multiplicative decrease and new epoch.
		c.wMax = c.cwndMbit
		c.cwndMbit *= c.Beta
		c.epochStart = s.Elapsed
	} else {
		// Cubic growth: W(t) = C*(t-K)^3 + Wmax, K = cbrt(Wmax*(1-beta)/C).
		t := s.Elapsed - c.epochStart
		k := math.Cbrt(c.wMax * (1 - c.Beta) / c.C)
		c.cwndMbit = c.C*math.Pow(t-k, 3) + c.wMax
	}
	c.cwndMbit = math.Max(c.cwndMbit, 0.01*c.baseRTT)
	// Pace the window over the measured RTT.
	rtt := math.Max(s.AvgLatency, c.baseRTT)
	return c.cwndMbit / rtt
}

// BBR approximates BBR v1 at MI granularity: it tracks the bottleneck
// bandwidth as the windowed max of delivered throughput and the propagation
// RTT as the windowed min of latency, paces at pacing_gain × BtlBw with the
// 8-phase gain cycle, and periodically drains to refresh its RTT estimate.
type BBR struct {
	btlBw      float64
	rtProp     float64
	maxBwHist  [10]float64 // the last nBwHist throughputs, oldest first
	nBwHist    int
	phase      int
	startup    bool
	lastProbe  float64
	probing    bool
	probeUntil float64
}

var bbrGainCycle = []float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBR sender.
func NewBBR() *BBR { return &BBR{} }

// Name implements Sender.
func (*BBR) Name() string { return "BBR" }

// Reset implements Sender.
func (b *BBR) Reset(initRate, baseRTT float64) {
	b.btlBw = initRate
	b.rtProp = baseRTT
	b.nBwHist = 0
	b.phase = 0
	b.startup = true
	b.lastProbe = 0
	b.probing = false
}

// OnMI implements Sender.
func (b *BBR) OnMI(s MIStats) float64 {
	// Update bottleneck bandwidth estimate (windowed max over ~10 MIs).
	if b.nBwHist < len(b.maxBwHist) {
		b.nBwHist++
	} else {
		copy(b.maxBwHist[:], b.maxBwHist[1:])
	}
	b.maxBwHist[b.nBwHist-1] = s.Throughput
	b.btlBw = 0
	for _, v := range b.maxBwHist[:b.nBwHist] {
		b.btlBw = math.Max(b.btlBw, v)
	}
	if b.btlBw < 0.01 {
		b.btlBw = 0.01
	}
	b.rtProp = math.Min(b.rtProp, s.MinLatency)

	if b.startup {
		// Startup: grow 2x per MI until throughput stops increasing.
		if s.Throughput < 0.8*s.SendRate && b.nBwHist > 2 {
			b.startup = false
		}
		return math.Max(s.SendRate*2, 0.02)
	}

	// ProbeRTT: every ~5 seconds, drain for one MI.
	if b.probing {
		b.probing = false
		return b.btlBw // resume
	}
	if s.Elapsed-b.lastProbe > 5 {
		b.lastProbe = s.Elapsed
		b.probing = true
		return math.Max(0.5*b.btlBw, 0.01)
	}

	gain := bbrGainCycle[b.phase]
	b.phase = (b.phase + 1) % len(bbrGainCycle)
	return gain * b.btlBw
}

// Vivace approximates PCC-Vivace (latency flavour): online gradient ascent
// on a utility combining throughput, latency gradient, and loss.
type Vivace struct {
	rate     float64
	prevUtil float64
	prevRate float64
	prevLat  float64
	step     float64
	dir      float64
}

// NewVivace returns a Vivace sender.
func NewVivace() *Vivace { return &Vivace{} }

// Name implements Sender.
func (*Vivace) Name() string { return "Vivace" }

// Reset implements Sender.
func (v *Vivace) Reset(initRate, baseRTT float64) {
	v.rate = initRate
	v.prevUtil = math.Inf(-1)
	v.prevRate = initRate
	v.prevLat = baseRTT
	v.step = 0.05
	v.dir = 1
}

// utility is Vivace's latency utility: rate^0.9 − 900·rate·dL/dt − 11.35·rate·loss.
func (v *Vivace) utility(s MIStats) float64 {
	latGrad := 0.0
	if s.Duration > 0 {
		latGrad = (s.AvgLatency - v.prevLat) / s.Duration
	}
	if latGrad < 0 {
		latGrad = 0
	}
	return math.Pow(math.Max(s.Throughput, 1e-6), 0.9) - 900*s.Throughput*latGrad - 11.35*s.Throughput*s.LossRate
}

// OnMI implements Sender.
func (v *Vivace) OnMI(s MIStats) float64 {
	util := v.utility(s)
	if util > v.prevUtil {
		// Keep moving in the same direction, slightly faster.
		v.step = math.Min(v.step*1.5, 0.3)
	} else {
		// Reverse and slow down.
		v.dir = -v.dir
		v.step = math.Max(v.step*0.5, 0.01)
	}
	v.prevUtil = util
	v.prevLat = s.AvgLatency
	v.prevRate = v.rate
	v.rate = math.Max(0.01, v.rate*(1+v.dir*v.step))
	return v.rate
}

// Copa approximates Copa: it targets a sending rate of
// 1/(delta·queueing_delay) packets per RTT, i.e. it increases while queueing
// delay is below target and decreases above.
type Copa struct {
	// Delta controls the latency sensitivity (default 0.5).
	Delta float64

	rate    float64
	baseRTT float64
}

// NewCopa returns a Copa sender.
func NewCopa() *Copa { return &Copa{Delta: 0.5} }

// Name implements Sender.
func (*Copa) Name() string { return "Copa" }

// Reset implements Sender.
func (c *Copa) Reset(initRate, baseRTT float64) {
	if c.Delta == 0 {
		c.Delta = 0.5
	}
	c.rate = initRate
	c.baseRTT = baseRTT
}

// OnMI implements Sender.
func (c *Copa) OnMI(s MIStats) float64 {
	qDelay := math.Max(s.AvgLatency-s.BaseRTT, 1e-4)
	// Target rate: lambda = MSS/(delta*qDelay); in fluid Mbps terms:
	target := PacketBytes * 8 / (c.Delta * qDelay) / 1e6
	if c.rate < target {
		c.rate *= 1.2
	} else {
		c.rate /= 1.2
	}
	c.rate = math.Max(c.rate, 0.01)
	return c.rate
}

// Oracle sends exactly at the link's current capacity: the ground-truth
// optimal used for gap-to-optimum comparisons (Strawman 3). It needs a
// reference to the simulator.
type Oracle struct {
	sim *Sim
}

// NewOracle builds the oracle for a specific simulator instance.
func NewOracle(sim *Sim) *Oracle { return &Oracle{sim: sim} }

// Name implements Sender.
func (*Oracle) Name() string { return "Oracle" }

// Reset implements Sender.
func (*Oracle) Reset(initRate, baseRTT float64) {}

// OnMI implements Sender.
func (o *Oracle) OnMI(s MIStats) float64 {
	// 98% of link rate: full utilization with negligible standing queue.
	return math.Max(0.98*o.sim.LinkRate(), 0.01)
}

// FixedRate always sends at a constant rate; a degenerate baseline useful in
// tests and as the §5.4-style naive CC baseline.
type FixedRate struct {
	Rate  float64
	Label string
}

// Name implements Sender.
func (f *FixedRate) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "FixedRate"
}

// Reset implements Sender.
func (f *FixedRate) Reset(initRate, baseRTT float64) {}

// OnMI implements Sender.
func (f *FixedRate) OnMI(s MIStats) float64 { return f.Rate }
