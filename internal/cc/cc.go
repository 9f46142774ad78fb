// Package cc implements a monitor-interval congestion-control simulator in
// the style of Aurora/PCC-RL (the second Genet use case), together with the
// rule-based baselines the paper evaluates: TCP Cubic, BBR, PCC-Vivace, a
// Copa-like latency-based scheme, and an oracle that tracks the link rate
// exactly.
//
// The link is a single bottleneck modeled as a fluid: a time-varying
// capacity from a bandwidth trace, a droptail queue, i.i.d. random loss, and
// Gaussian per-packet delay noise — the exact inputs of the paper's CC trace
// generator (§A.2, Table 4). Senders act once per monitor interval (MI),
// observing the MI's throughput, latency, and loss, and returning the send
// rate for the next interval. The paper notes (§7) that this MI granularity
// is exactly what makes Aurora coarser than ack-clocked TCP; the Cubic and
// BBR baselines here are "MI-ized" approximations, which §4.3 of the paper
// explicitly condones for baseline purposes.
//
// Reward follows Table 1: per-MI reward = a·throughput + b·latency +
// c·lossRate with a=120 (throughput in Mbps), b=−1000 (latency in seconds),
// c=−2000; the episode reward is the per-MI mean.
package cc

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/stats"
	"github.com/genet-go/genet/internal/trace"
)

// Reward coefficients from Table 1 (throughput in Mbps, latency in seconds).
const (
	RewardThroughputCoef = 120.0
	RewardLatencyCoef    = -1000.0
	RewardLossCoef       = -2000.0
)

// PacketBytes is the simulated packet size; queue capacity in Table 4 is
// expressed in packets of this size.
const PacketBytes = 1500

// MIStats is what a sender observes about one monitor interval.
type MIStats struct {
	Duration   float64 // seconds
	SendRate   float64 // Mbps the sender attempted
	Throughput float64 // Mbps actually delivered
	AvgLatency float64 // seconds (one-way propagation*2 + queueing + noise)
	MinLatency float64 // smallest latency observed this MI
	LossRate   float64 // fraction of sent data lost (random + overflow)
	BaseRTT    float64 // smallest latency observed across the connection so far
	Elapsed    float64 // connection time at MI end
}

// LatencyInflation returns avg latency relative to the connection's base
// RTT, minus one (0 = no queueing).
func (m MIStats) LatencyInflation() float64 {
	if m.BaseRTT <= 0 {
		return 0
	}
	return m.AvgLatency/m.BaseRTT - 1
}

// Reward returns the Table 1 per-MI reward.
func (m MIStats) Reward() float64 {
	return RewardThroughputCoef*m.Throughput + RewardLatencyCoef*m.AvgLatency + RewardLossCoef*m.LossRate
}

// Sender is a congestion-control algorithm driven at MI granularity.
type Sender interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Reset prepares for a new connection; initRate is the starting send
	// rate in Mbps and baseRTT the path's propagation RTT in seconds.
	Reset(initRate, baseRTT float64)
	// OnMI receives the finished interval's stats and returns the send
	// rate (Mbps) for the next interval.
	OnMI(s MIStats) float64
}

// LinkParams describe the bottleneck (Table 4 dimensions).
type LinkParams struct {
	OneWayDelayMs float64 // propagation delay each way (min-rtt / 2)
	QueuePackets  float64 // droptail queue capacity
	RandomLoss    float64 // i.i.d. loss probability
	DelayNoiseMs  float64 // stddev of Gaussian per-packet delay noise
}

// Sim simulates one connection over a bandwidth trace.
type Sim struct {
	trace *trace.Trace
	link  LinkParams
	rng   *rand.Rand

	clock     float64
	queueBits float64
	baseRTT   float64 // propagation RTT, seconds
	minSeen   float64 // min latency observed so far
	traceCur  int     // trace lookup cursor for the fluid integration loop
}

// NewSim builds a connection simulator. rng drives loss and delay noise.
func NewSim(tr *trace.Trace, link LinkParams, rng *rand.Rand) (*Sim, error) {
	s := new(Sim)
	if err := s.Init(tr, link, rng); err != nil {
		return nil, err
	}
	return s, nil
}

// Init resets s in place to a fresh connection, exactly as NewSim would
// construct it, so the vectorized training loop can reuse one Sim per slot.
func (s *Sim) Init(tr *trace.Trace, link LinkParams, rng *rand.Rand) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	if link.QueuePackets < 1 {
		return fmt.Errorf("cc: queue of %f packets", link.QueuePackets)
	}
	if link.RandomLoss < 0 || link.RandomLoss >= 1 {
		return fmt.Errorf("cc: loss rate %f outside [0,1)", link.RandomLoss)
	}
	baseRTT := 2 * link.OneWayDelayMs / 1000
	if baseRTT <= 0 {
		baseRTT = 0.002
	}
	*s = Sim{trace: tr, link: link, rng: rng, baseRTT: baseRTT, minSeen: math.Inf(1)}
	return nil
}

// BaseRTT returns the propagation RTT in seconds.
func (s *Sim) BaseRTT() float64 { return s.baseRTT }

// Clock returns the connection time in seconds.
func (s *Sim) Clock() float64 { return s.clock }

// LinkRate returns the current link capacity in Mbps (oracle access).
func (s *Sim) LinkRate() float64 { return s.trace.AtWrapped(s.clock) }

// simStep is the fluid integration step in seconds.
const simStep = 0.002

// RunMI advances the connection by one monitor interval at the given send
// rate (Mbps) and returns the interval's stats. MI duration is
// max(baseRTT, 50 ms), matching Aurora's RTT-proportional intervals with a
// floor for very short paths.
func (s *Sim) RunMI(sendRate float64) MIStats {
	dur := math.Max(s.baseRTT, 0.05)
	return s.runFor(sendRate, dur)
}

func (s *Sim) runFor(sendRate, dur float64) MIStats {
	if sendRate < 0.01 {
		sendRate = 0.01
	}
	queueCapBits := s.link.QueuePackets * PacketBytes * 8

	var sentBits, deliveredBits, lostBits float64
	var latencySum, latencyMin float64
	latencyMin = math.Inf(1)
	nSamples := 0.0

	end := s.clock + dur
	for s.clock < end {
		dt := min(simStep, end-s.clock)
		var bw float64
		bw, s.traceCur = s.trace.AtWrappedHint(s.clock, s.traceCur)
		bw *= 1e6 // bits/sec
		arrive := sendRate * 1e6 * dt
		sentBits += arrive

		// Random loss drops a fraction of arrivals before the queue.
		if s.link.RandomLoss > 0 {
			dropped := arrive * s.link.RandomLoss
			lostBits += dropped
			arrive -= dropped
		}

		// Droptail queue.
		s.queueBits += arrive
		if s.queueBits > queueCapBits {
			lostBits += s.queueBits - queueCapBits
			s.queueBits = queueCapBits
		}

		// Service.
		served := bw * dt
		delivered := min(served, s.queueBits)
		s.queueBits -= delivered
		deliveredBits += delivered

		// Latency sample for data delivered in this step.
		if delivered > 0 || nSamples == 0 {
			qDelay := 0.0
			if bw > 0 {
				qDelay = s.queueBits / bw
			}
			noise := 0.0
			if s.link.DelayNoiseMs > 0 {
				noise = math.Abs(s.rng.NormFloat64()) * s.link.DelayNoiseMs / 1000
			}
			lat := s.baseRTT + qDelay + noise
			latencySum += lat
			nSamples++
			latencyMin = min(latencyMin, lat)
		}
		s.clock += dt
	}

	avgLat := s.baseRTT
	if nSamples > 0 {
		avgLat = latencySum / nSamples
	}
	if math.IsInf(latencyMin, 1) {
		latencyMin = avgLat
	}
	s.minSeen = min(s.minSeen, latencyMin)

	loss := 0.0
	if sentBits > 0 {
		// Accumulation order can push lost a few ULPs past sent when the
		// queue sits at capacity over a stalled link; a loss *fraction*
		// stays in [0, 1] by definition.
		loss = min(lostBits/sentBits, 1)
	}
	return MIStats{
		Duration:   dur,
		SendRate:   sendRate,
		Throughput: deliveredBits / dur / 1e6,
		AvgLatency: avgLat,
		MinLatency: latencyMin,
		LossRate:   loss,
		BaseRTT:    min(s.minSeen, s.baseRTT),
		Elapsed:    s.clock,
	}
}

// Metrics summarizes a connection.
type Metrics struct {
	NumMIs         int
	MeanReward     float64 // per-MI mean Table 1 reward
	MeanThroughput float64 // Mbps
	P90Latency     float64 // seconds
	MeanLatency    float64
	LossRate       float64 // overall lost/sent
	MeanSendRate   float64
}

// RunEpisode drives sender over the simulator for the given duration
// (seconds) and returns connection metrics. The sender starts at initRate
// Mbps (a conservative 0.5 when non-positive).
func RunEpisode(sim *Sim, sender Sender, duration, initRate float64) Metrics {
	if initRate <= 0 {
		initRate = 0.5
	}
	sender.Reset(initRate, sim.BaseRTT())
	rate := initRate
	// Size the per-MI series for the whole episode: an MI lasts
	// max(baseRTT, 50 ms) (see RunMI).
	n := 0
	if mis := (duration - sim.Clock()) / max(sim.BaseRTT(), 0.05); mis > 0 && mis < 1<<20 {
		n = int(mis) + 1
	}
	rewards, tputs := make([]float64, 0, n), make([]float64, 0, n)
	lats, rates := make([]float64, 0, n), make([]float64, 0, n)
	var sent, lost float64
	for sim.Clock() < duration {
		mi := sim.RunMI(rate)
		rewards = append(rewards, mi.Reward())
		tputs = append(tputs, mi.Throughput)
		lats = append(lats, mi.AvgLatency)
		rates = append(rates, mi.SendRate)
		sent += mi.SendRate * mi.Duration
		lost += mi.LossRate * mi.SendRate * mi.Duration
		rate = sender.OnMI(mi)
	}
	m := Metrics{NumMIs: len(rewards)}
	if len(rewards) == 0 {
		return m
	}
	m.MeanReward = stats.Mean(rewards)
	m.MeanThroughput = stats.Mean(tputs)
	m.MeanLatency = stats.Mean(lats)
	m.P90Latency = stats.Percentile(lats, 90)
	m.MeanSendRate = stats.Mean(rates)
	if sent > 0 {
		m.LossRate = lost / sent
	}
	return m
}
