package abr

import (
	"math"

	"github.com/genet-go/genet/internal/stats"
)

// HistLen is the number of past chunks whose throughput and download time
// are visible to policies (the Pensieve state definition).
const HistLen = 8

// Observation is everything an ABR policy may legitimately see when picking
// the next chunk's bitrate: Table 1's "future chunk size, history
// throughput, buffer length" plus the usual Pensieve extras.
type Observation struct {
	Buffer          float64   // seconds currently buffered
	MaxBuffer       float64   // buffer capacity in seconds
	LastLevel       int       // previous ladder level, -1 before first chunk
	LastRebuffer    float64   // seconds stalled on the previous chunk
	ThroughputHist  []float64 // Mbps, oldest first, zero-padded to HistLen
	DownloadHist    []float64 // seconds, oldest first, zero-padded to HistLen
	NextSizes       []float64 // bytes per level for the upcoming chunk
	RemainingChunks int
	TotalChunks     int
	Video           *Video
}

// Policy selects the bitrate level for the next chunk.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Reset clears per-session state (prediction error history etc.).
	Reset()
	// Select returns the ladder level for the next chunk.
	Select(obs *Observation) int
}

// Metrics summarizes one streaming session.
type Metrics struct {
	NumChunks     int
	MeanReward    float64 // per-chunk mean of the Table 1 reward
	TotalReward   float64
	MeanBitrate   float64 // Mbps
	TotalRebuffer float64 // seconds
	RebufferRatio float64 // rebuffer seconds / video seconds
	MeanChange    float64 // Mbps per chunk
}

// RunEpisode streams the whole video through sim using policy and returns
// session metrics. The policy's Reset is called first.
func RunEpisode(sim *Sim, policy Policy) Metrics {
	policy.Reset()
	obs := &Observation{
		ThroughputHist: make([]float64, HistLen),
		DownloadHist:   make([]float64, HistLen),
		Video:          sim.Video(),
		MaxBuffer:      sim.maxBuffer,
		LastLevel:      -1,
		TotalChunks:    sim.Video().NumChunks(),
	}
	var m Metrics
	nc := sim.Video().NumChunks()
	rewards := make([]float64, 0, nc)
	bitrates := make([]float64, 0, nc)
	changes := make([]float64, 0, nc)
	nextSizes := make([]float64, 0, sim.Video().NumLevels())
	lastBr := -1.0
	for !sim.Done() {
		obs.Buffer = sim.Buffer()
		nextSizes = sim.NextSizesInto(nextSizes)
		obs.NextSizes = nextSizes
		obs.RemainingChunks = sim.RemainingChunks()
		level := policy.Select(obs)
		if level < 0 {
			level = 0
		}
		if level >= sim.Video().NumLevels() {
			level = sim.Video().NumLevels() - 1
		}
		res := sim.Next(level)

		rewards = append(rewards, res.Reward)
		bitrates = append(bitrates, res.BitrateMbps)
		if lastBr >= 0 {
			changes = append(changes, math.Abs(res.BitrateMbps-lastBr))
		}
		lastBr = res.BitrateMbps
		m.TotalRebuffer += res.Rebuffer

		pushHist(obs.ThroughputHist, res.Throughput)
		pushHist(obs.DownloadHist, res.DownloadTime)
		obs.LastLevel = res.Level
		obs.LastRebuffer = res.Rebuffer
	}
	m.NumChunks = len(rewards)
	m.MeanReward = stats.Mean(rewards)
	m.TotalReward = stats.Sum(rewards)
	m.MeanBitrate = stats.Mean(bitrates)
	m.MeanChange = stats.Mean(changes)
	videoSec := float64(m.NumChunks) * sim.Video().ChunkLength
	if videoSec > 0 {
		m.RebufferRatio = m.TotalRebuffer / videoSec
	}
	return m
}

func pushHist(hist []float64, v float64) {
	copy(hist, hist[1:])
	hist[len(hist)-1] = v
}

// predictThroughput is the harmonic-mean predictor over the last five
// non-zero entries of the throughput history, shared by the rate-based and
// MPC baselines.
func predictThroughput(hist []float64) float64 {
	var buf [5]float64
	k := len(buf)
	for i := len(hist) - 1; i >= 0 && k > 0; i-- {
		if hist[i] > 0 {
			k--
			buf[k] = hist[i]
		}
	}
	if k == len(buf) {
		return 0.3 // conservative cold-start guess (lowest rung, Mbps)
	}
	return stats.HarmonicMean(buf[k:])
}
