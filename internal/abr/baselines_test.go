package abr

import (
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
)

func obsWith(t *testing.T, buffer float64) *Observation {
	t.Helper()
	v := fixedVideo(t, 40, 4)
	sizes := make([]float64, v.NumLevels())
	for l := range sizes {
		sizes[l] = v.Sizes[l][0]
	}
	return &Observation{
		Buffer:          buffer,
		MaxBuffer:       60,
		LastLevel:       -1,
		ThroughputHist:  make([]float64, HistLen),
		DownloadHist:    make([]float64, HistLen),
		NextSizes:       sizes,
		RemainingChunks: 10,
		TotalChunks:     10,
		Video:           v,
	}
}

func TestBBAThresholds(t *testing.T) {
	b := &BBA{}
	if got := b.Select(obsWith(t, 1)); got != 0 {
		t.Fatalf("below reservoir -> %d, want 0", got)
	}
	if got := b.Select(obsWith(t, 59)); got != 5 {
		t.Fatalf("above cushion -> %d, want top", got)
	}
	mid := b.Select(obsWith(t, 30))
	if mid <= 0 || mid >= 5 {
		t.Fatalf("mid buffer -> %d, want interior rung", mid)
	}
}

func TestBBAMonotoneInBuffer(t *testing.T) {
	b := &BBA{}
	last := -1
	for buf := 0.0; buf <= 60; buf += 2 {
		l := b.Select(obsWith(t, buf))
		if l < last {
			t.Fatalf("BBA not monotone: buffer %v -> %d after %d", buf, l, last)
		}
		last = l
	}
}

func TestBBATinyMaxBuffer(t *testing.T) {
	// Cushion below reservoir must not panic or misbehave.
	b := &BBA{}
	obs := obsWith(t, 3)
	obs.MaxBuffer = 4
	l := b.Select(obs)
	if l < 0 || l > 5 {
		t.Fatalf("level = %d", l)
	}
}

func TestRateBasedPicksBelowPrediction(t *testing.T) {
	p := RateBased{}
	obs := obsWith(t, 10)
	for i := range obs.ThroughputHist {
		obs.ThroughputHist[i] = 2.0 // Mbps
	}
	l := p.Select(obs)
	if got := obs.Video.BitrateMbps(l); got > 2.0 {
		t.Fatalf("rate-based chose %v Mbps above 2.0 prediction", got)
	}
	// And it should pick the highest such rung (1.85 Mbps).
	if l != 3 {
		t.Fatalf("level = %d, want 3", l)
	}
}

func TestRateBasedColdStart(t *testing.T) {
	p := RateBased{}
	l := p.Select(obsWith(t, 10)) // all-zero history
	if l != 0 {
		t.Fatalf("cold start level = %d, want 0", l)
	}
}

func TestMPCPrefersHighBitrateOnFastLink(t *testing.T) {
	m := NewRobustMPC()
	m.Reset()
	obs := obsWith(t, 30)
	for i := range obs.ThroughputHist {
		obs.ThroughputHist[i] = 50
	}
	if l := m.Select(obs); l != 5 {
		t.Fatalf("fast link level = %d, want 5", l)
	}
}

func TestMPCConservativeOnSlowLink(t *testing.T) {
	m := NewRobustMPC()
	m.Reset()
	obs := obsWith(t, 2) // nearly empty buffer
	for i := range obs.ThroughputHist {
		obs.ThroughputHist[i] = 0.4
	}
	if l := m.Select(obs); l > 1 {
		t.Fatalf("slow link, empty buffer level = %d, want <= 1", l)
	}
}

func TestMPCRobustDiscountLowersChoice(t *testing.T) {
	// With oscillating throughput the robust variant must be at least as
	// conservative as plain MPC.
	mkObs := func() *Observation {
		obs := obsWith(t, 20)
		vals := []float64{4, 1, 4, 1, 4, 1, 4, 1}
		copy(obs.ThroughputHist, vals)
		return obs
	}
	plain := &MPC{Horizon: 5, Robust: false}
	robust := NewRobustMPC()
	plain.Reset()
	robust.Reset()
	// Feed a couple of steps so the error history builds up.
	for i := 0; i < 3; i++ {
		plain.Select(mkObs())
		robust.Select(mkObs())
	}
	if robust.Select(mkObs()) > plain.Select(mkObs()) {
		t.Fatal("robust MPC chose a higher rung than plain MPC under volatile throughput")
	}
}

func TestMPCHorizonClampsToRemaining(t *testing.T) {
	m := NewRobustMPC()
	m.Reset()
	obs := obsWith(t, 30)
	obs.RemainingChunks = 0
	if l := m.Select(obs); l != 0 {
		t.Fatalf("no remaining chunks level = %d", l)
	}
}

func TestNaivePolicy(t *testing.T) {
	n := Naive{}
	obs := obsWith(t, 10)
	if l := n.Select(obs); l != 0 {
		t.Fatalf("no stall level = %d, want 0", l)
	}
	obs.LastRebuffer = 1
	if l := n.Select(obs); l != 5 {
		t.Fatalf("after stall level = %d, want top", l)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"BBA":       &BBA{},
		"RobustMPC": NewRobustMPC(),
		"MPC":       &MPC{Robust: false},
		"RateBased": RateBased{},
		"NaiveABR":  Naive{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestOmniscientBeatsNaiveEverywhere(t *testing.T) {
	space := env.ABRSpace(env.RL3)
	cfg := space.Default(env.ABRDefaults())
	for i := 0; i < 4; i++ {
		inst, err := NewInstance(cfg, nil, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		omni := inst.EvaluateOmniscient()
		naive := inst.Evaluate(Naive{})
		if omni.MeanReward <= naive.MeanReward {
			t.Fatalf("seed %d: omniscient %.3f <= naive %.3f", i, omni.MeanReward, naive.MeanReward)
		}
	}
}

func TestOmniscientAtLeastMPCOnAverage(t *testing.T) {
	space := env.ABRSpace(env.RL3)
	cfg := space.Default(env.ABRDefaults())
	var omniSum, mpcSum float64
	const n = 6
	for i := 0; i < n; i++ {
		inst, err := NewInstance(cfg, nil, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		omniSum += inst.EvaluateOmniscient().MeanReward
		mpcSum += inst.Evaluate(NewRobustMPC()).MeanReward
	}
	if omniSum < mpcSum {
		t.Fatalf("omniscient mean %.3f below RobustMPC %.3f", omniSum/n, mpcSum/n)
	}
}

func TestRunEpisodeMetricsConsistent(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(3, 300), SimConfig{RTTMs: 80, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	m := RunEpisode(sim, &BBA{})
	if m.NumChunks != v.NumChunks() {
		t.Fatalf("chunks = %d, want %d", m.NumChunks, v.NumChunks())
	}
	if m.MeanBitrate < 0.3 || m.MeanBitrate > 4.3 {
		t.Fatalf("mean bitrate = %v outside ladder", m.MeanBitrate)
	}
	// TotalReward must equal MeanReward * NumChunks.
	if diff := m.TotalReward - m.MeanReward*float64(m.NumChunks); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("total/mean inconsistent: %v vs %v", m.TotalReward, m.MeanReward*float64(m.NumChunks))
	}
	if m.RebufferRatio < 0 {
		t.Fatalf("rebuffer ratio = %v", m.RebufferRatio)
	}
}

func TestRunEpisodeClampsPolicyOutput(t *testing.T) {
	v := fixedVideo(t, 12, 4)
	sim, err := NewSim(v, constTrace(3, 300), SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	m := RunEpisode(sim, outOfRangePolicy{})
	if m.NumChunks != 3 {
		t.Fatalf("episode did not complete: %d chunks", m.NumChunks)
	}
}

type outOfRangePolicy struct{}

func (outOfRangePolicy) Name() string            { return "oob" }
func (outOfRangePolicy) Reset()                  {}
func (outOfRangePolicy) Select(*Observation) int { return 99 }

func TestBOLAMonotoneInBuffer(t *testing.T) {
	b := NewBOLA()
	b.Reset()
	last := -1
	for buf := 0.0; buf <= 60; buf += 2 {
		l := b.Select(obsWith(t, buf))
		if l < last {
			t.Fatalf("BOLA not monotone: buffer %v -> %d after %d", buf, l, last)
		}
		last = l
	}
	if last == 0 {
		t.Fatal("BOLA never left the bottom rung across the whole buffer range")
	}
}

func TestBOLAEndpoints(t *testing.T) {
	b := NewBOLA()
	b.Reset()
	if l := b.Select(obsWith(t, 0)); l != 0 {
		t.Fatalf("empty buffer level = %d, want 0", l)
	}
	if l := b.Select(obsWith(t, 59)); l != 5 {
		t.Fatalf("full buffer level = %d, want top", l)
	}
}

func TestBOLACompetitiveWithBBA(t *testing.T) {
	cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
	var bola, bba float64
	const n = 5
	for i := 0; i < n; i++ {
		inst, err := NewInstance(cfg, nil, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		bola += inst.Evaluate(NewBOLA()).MeanReward
		bba += inst.Evaluate(&BBA{}).MeanReward
	}
	// Both are buffer-based; BOLA should be in the same league.
	if bola < 0.6*bba-1 {
		t.Fatalf("BOLA %.3f far below BBA %.3f", bola/n, bba/n)
	}
}
