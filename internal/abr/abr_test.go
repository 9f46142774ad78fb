package abr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/genet-go/genet/internal/trace"
)

func constTrace(bw float64, dur float64) *trace.Trace {
	tr := &trace.Trace{}
	for ts := 0.0; ts <= dur; ts++ {
		tr.Timestamps = append(tr.Timestamps, ts)
		tr.Bandwidth = append(tr.Bandwidth, bw)
	}
	return tr
}

func fixedVideo(t *testing.T, length, chunkLen float64) *Video {
	t.Helper()
	v, err := NewVideo(length, chunkLen, DefaultBitratesKbps, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewVideoValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewVideo(10, 0, DefaultBitratesKbps, rng); err == nil {
		t.Fatal("zero chunk length accepted")
	}
	if _, err := NewVideo(1, 4, DefaultBitratesKbps, rng); err == nil {
		t.Fatal("video shorter than a chunk accepted")
	}
	if _, err := NewVideo(10, 2, []float64{300}, rng); err == nil {
		t.Fatal("single-rung ladder accepted")
	}
	if _, err := NewVideo(10, 2, []float64{300, 200}, rng); err == nil {
		t.Fatal("descending ladder accepted")
	}
}

func TestVideoChunkCountAndSizes(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	if v.NumChunks() != 10 {
		t.Fatalf("chunks = %d, want 10", v.NumChunks())
	}
	if v.NumLevels() != 6 {
		t.Fatalf("levels = %d", v.NumLevels())
	}
	// Sizes must be within ±5% of nominal bitrate*duration.
	for l, br := range v.BitratesKbps {
		nominal := br * 1000 / 8 * 4
		for c := 0; c < v.NumChunks(); c++ {
			s := v.Sizes[l][c]
			if s < nominal*0.95 || s > nominal*1.05 {
				t.Fatalf("size[%d][%d] = %v outside 5%% of %v", l, c, s, nominal)
			}
		}
	}
}

func TestBitrateMbps(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	if v.BitrateMbps(0) != 0.3 || v.BitrateMbps(5) != 4.3 {
		t.Fatalf("ladder Mbps = %v, %v", v.BitrateMbps(0), v.BitrateMbps(5))
	}
}

func TestSimDownloadTimeMatchesBandwidth(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	// 10 Mbps constant link, zero RTT: a chunk of S bytes takes
	// S*8/10e6 seconds.
	sim, err := NewSim(v, constTrace(10, 300), SimConfig{RTTMs: 0, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	size := v.Sizes[3][0]
	res := sim.Next(3)
	want := size * 8 / 1e6 / 10
	if math.Abs(res.DownloadTime-want) > 0.06 { // integration step tolerance
		t.Fatalf("download time = %v, want ~%v", res.DownloadTime, want)
	}
}

func TestSimRTTAddsLatency(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	mk := func(rttMs float64) float64 {
		sim, err := NewSim(v, constTrace(10, 300), SimConfig{RTTMs: rttMs, MaxBufferSec: 60})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Next(0).DownloadTime
	}
	if d := mk(1000) - mk(0); math.Abs(d-1.0) > 0.06 {
		t.Fatalf("1000ms RTT added %v s, want ~1", d)
	}
}

func TestSimBufferGrowsByChunkLength(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(100, 300), SimConfig{RTTMs: 0, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	sim.Next(0)
	// Fast link: download ~instant, buffer ~4s after one chunk.
	if sim.Buffer() < 3.8 || sim.Buffer() > 4.0 {
		t.Fatalf("buffer = %v, want ~4", sim.Buffer())
	}
}

func TestSimRebufferOnSlowLink(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	// 0.1 Mbps link: top-rung chunks (4.3 Mbps x 4 s) take ~172s.
	sim, err := NewSim(v, constTrace(0.1, 300), SimConfig{RTTMs: 0, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	first := sim.Next(5)
	if first.Rebuffer != 0 {
		t.Fatal("startup delay counted as rebuffering")
	}
	second := sim.Next(5)
	if second.Rebuffer <= 100 {
		t.Fatalf("rebuffer = %v, want large stall", second.Rebuffer)
	}
}

func TestSimWaitsWhenBufferFull(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(1000, 300), SimConfig{RTTMs: 0, MaxBufferSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	var waited float64
	for !sim.Done() {
		res := sim.Next(0)
		waited += res.WaitTime
		if sim.Buffer() > 5+1e-9 {
			t.Fatalf("buffer %v exceeded cap 5", sim.Buffer())
		}
	}
	if waited == 0 {
		t.Fatal("fast link with tiny buffer never waited")
	}
}

func TestSimRewardFormulaTable1(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(100, 300), SimConfig{RTTMs: 0, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	r1 := sim.Next(2) // first chunk: no change penalty
	wantR1 := RewardBitrateCoef*v.BitrateMbps(2) + RewardRebufCoef*r1.Rebuffer
	if math.Abs(r1.Reward-wantR1) > 1e-9 {
		t.Fatalf("reward = %v, want %v", r1.Reward, wantR1)
	}
	r2 := sim.Next(4) // switch 1.2 -> 2.85 Mbps
	change := v.BitrateMbps(4) - v.BitrateMbps(2)
	wantR2 := RewardBitrateCoef*v.BitrateMbps(4) + RewardRebufCoef*r2.Rebuffer + RewardChangeCoef*change
	if math.Abs(r2.Reward-wantR2) > 1e-9 {
		t.Fatalf("reward with change = %v, want %v", r2.Reward, wantR2)
	}
}

func TestSimDonePanics(t *testing.T) {
	v := fixedVideo(t, 8, 4) // 2 chunks
	sim, err := NewSim(v, constTrace(10, 100), SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	sim.Next(0)
	sim.Next(0)
	if !sim.Done() {
		t.Fatal("sim not done after all chunks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next after done did not panic")
		}
	}()
	sim.Next(0)
}

func TestSimInvalidLevelPanics(t *testing.T) {
	v := fixedVideo(t, 8, 4)
	sim, err := NewSim(v, constTrace(10, 100), SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid level did not panic")
		}
	}()
	sim.Next(99)
}

func TestNextSizesAndRemaining(t *testing.T) {
	v := fixedVideo(t, 12, 4)
	sim, err := NewSim(v, constTrace(10, 100), SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	sizes := sim.NextSizesInto(nil)
	if len(sizes) != 6 || sizes[0] != v.Sizes[0][0] {
		t.Fatalf("NextSizes = %v", sizes)
	}
	if sim.RemainingChunks() != 3 {
		t.Fatalf("remaining = %d", sim.RemainingChunks())
	}
	sim.Next(0)
	if sim.RemainingChunks() != 2 {
		t.Fatalf("remaining after one = %d", sim.RemainingChunks())
	}
	for !sim.Done() {
		sim.Next(0)
	}
	if sim.NextSizesInto(nil) != nil {
		t.Fatal("NextSizes after done should be nil")
	}
}

func TestFutureDownloadTimePreservesClock(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(5, 300), SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Clock()
	_ = sim.FutureDownloadTime(3, 5, 17.0)
	if sim.Clock() != before {
		t.Fatal("oracle query moved the session clock")
	}
}

func TestHigherBandwidthNeverSlower(t *testing.T) {
	// Property: with the same video, higher constant bandwidth gives a
	// download time no larger, chunk by chunk.
	f := func(seed int64, bwRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v, err := NewVideo(20, 4, DefaultBitratesKbps, rng)
		if err != nil {
			return false
		}
		bw := 0.5 + float64(bwRaw)/255*20
		mk := func(b float64) *Sim {
			s, err := NewSim(v, constTrace(b, 500), SimConfig{MaxBufferSec: 60})
			if err != nil {
				panic(err)
			}
			return s
		}
		slow, fast := mk(bw), mk(bw*2)
		for i := 0; i < v.NumChunks(); i++ {
			rs := slow.Next(3)
			rf := fast.Next(3)
			if rf.DownloadTime > rs.DownloadTime+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFutureDownloadTimeMatchesLiveDownload(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(4, 400), SimConfig{RTTMs: 50, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Predict the next chunk's download at the current clock, then do it.
	predicted := sim.FutureDownloadTime(3, sim.Chunk(), sim.Clock())
	actual := sim.Next(3).DownloadTime
	if math.Abs(predicted-actual) > 1e-9 {
		t.Fatalf("oracle prediction %v != live download %v", predicted, actual)
	}
}

func TestSimZeroBandwidthSafetyValve(t *testing.T) {
	// A (clamped) near-zero-bandwidth trace must not hang the simulator.
	tr := constTrace(0, 100)
	v := fixedVideo(t, 8, 4)
	sim, err := NewSim(v, tr, SimConfig{MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Next(0)
	if res.DownloadTime <= 0 || math.IsInf(res.DownloadTime, 0) || math.IsNaN(res.DownloadTime) {
		t.Fatalf("degenerate download time %v", res.DownloadTime)
	}
}

func TestThroughputMeasurementApproximatesLink(t *testing.T) {
	v := fixedVideo(t, 40, 4)
	sim, err := NewSim(v, constTrace(6, 400), SimConfig{RTTMs: 0, MaxBufferSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Next(4)
	if res.Throughput < 5 || res.Throughput > 7 {
		t.Fatalf("measured throughput %v on a 6 Mbps link", res.Throughput)
	}
}
