package abr

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/stats"
)

// The reference implementations below are the exhaustive-enumeration MPC
// and Oboe planners the branch-and-bound planner replaced, kept verbatim as
// test oracles: MPC.Select and Oboe.Select must return exactly what these
// return for every observation.

// oracleMPC is the enumerating RobustMPC.
type oracleMPC struct {
	Horizon int
	Robust  bool

	lastPrediction float64
	errorHist      []float64
}

func (m *oracleMPC) Name() string { return "oracleMPC" }

func (m *oracleMPC) Reset() {
	m.lastPrediction = 0
	m.errorHist = nil
}

func (m *oracleMPC) Select(obs *Observation) int {
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	if r := obs.RemainingChunks; r < horizon {
		horizon = r
	}
	if horizon == 0 {
		return 0
	}

	// Track prediction error against the realized throughput.
	if m.lastPrediction > 0 {
		actual := obs.ThroughputHist[len(obs.ThroughputHist)-1]
		if actual > 0 {
			e := math.Abs(m.lastPrediction-actual) / actual
			m.errorHist = append(m.errorHist, e)
			if len(m.errorHist) > 5 {
				m.errorHist = m.errorHist[1:]
			}
		}
	}
	pred := oraclePredictThroughput(obs.ThroughputHist)
	m.lastPrediction = pred
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errorHist {
			maxErr = math.Max(maxErr, e)
		}
		pred /= 1 + maxErr
	}
	if pred <= 0 {
		pred = 0.1
	}
	return oraclePlan(obs, horizon, pred)
}

// oraclePlan enumerates every level sequence over the horizon and returns
// the first level of the lexicographically first best-scoring one.
func oraclePlan(obs *Observation, horizon int, pred float64) int {
	best, bestScore := 0, math.Inf(-1)
	n := obs.Video.NumLevels()
	seq := make([]int, horizon)
	var rec func(depth int, buffer float64, lastLevel int, score float64)
	rec = func(depth int, buffer float64, lastLevel int, score float64) {
		if depth == horizon {
			if score > bestScore {
				bestScore = score
				best = seq[0]
			}
			return
		}
		for l := 0; l < n; l++ {
			size := obs.Video.BitrateMbps(l) * obs.Video.ChunkLength // Mbit nominal
			if depth == 0 && obs.NextSizes != nil {
				size = obs.NextSizes[l] * 8 / 1e6
			}
			dl := size / pred
			rebuf := math.Max(0, dl-buffer)
			nb := math.Max(0, buffer-dl) + obs.Video.ChunkLength
			if nb > obs.MaxBuffer {
				nb = obs.MaxBuffer
			}
			change := 0.0
			if lastLevel >= 0 {
				change = math.Abs(obs.Video.BitrateMbps(l) - obs.Video.BitrateMbps(lastLevel))
			}
			r := RewardBitrateCoef*obs.Video.BitrateMbps(l) + RewardRebufCoef*rebuf + RewardChangeCoef*change
			seq[depth] = l
			rec(depth+1, nb, l, score+r)
		}
	}
	rec(0, obs.Buffer, obs.LastLevel, 0)
	return best
}

func oraclePredictThroughput(hist []float64) float64 {
	var tail []float64
	for _, h := range hist {
		if h > 0 {
			tail = append(tail, h)
		}
	}
	if len(tail) == 0 {
		return 0.3 // conservative cold-start guess (lowest rung, Mbps)
	}
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	return stats.HarmonicMean(tail)
}

// oracleOboe is the enumerating Oboe.
type oracleOboe struct {
	Horizon     int
	Sensitivity float64

	mpc oracleMPC
}

func (*oracleOboe) Name() string { return "oracleOboe" }

func (o *oracleOboe) Reset() { o.mpc.Reset() }

func (o *oracleOboe) Select(obs *Observation) int {
	horizon := o.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	sens := o.Sensitivity
	if sens <= 0 {
		sens = 1
	}
	var tail []float64
	for _, v := range obs.ThroughputHist {
		if v > 0 {
			tail = append(tail, v)
		}
	}
	if len(tail) < 2 {
		o.mpc.Horizon = horizon
		o.mpc.Robust = true
		return o.mpc.Select(obs)
	}
	mean := stats.Mean(tail)
	cv := 0.0
	if mean > 0 {
		cv = stats.Std(tail) / mean
	}
	pred := mean / (1 + sens*cv)
	if pred <= 0 {
		pred = 0.1
	}
	return oraclePlan(obs, min(horizon, max(1, obs.RemainingChunks)), pred)
}

// oracleCheck drives an episode with got while asserting that want, fed
// the same observations, picks the same level at every chunk.
type oracleCheck struct {
	t         *testing.T
	got, want Policy
	noSizes   bool // hide NextSizes, so depth 0 plans on nominal sizes
	short     int  // decisions seen with RemainingChunks below the horizon
	horizon   int
	decisions int
}

func (c *oracleCheck) Name() string { return c.got.Name() }

func (c *oracleCheck) Reset() { c.got.Reset(); c.want.Reset() }

func (c *oracleCheck) Select(obs *Observation) int {
	if c.noSizes {
		obs.NextSizes = nil
	}
	g, w := c.got.Select(obs), c.want.Select(obs)
	if g != w {
		c.t.Fatalf("%s horizon %d decision %d: got level %d, oracle %d (buffer %v, last %d, remaining %d, hist %v, sizes %v)",
			c.got.Name(), c.horizon, c.decisions, g, w, obs.Buffer, obs.LastLevel, obs.RemainingChunks, obs.ThroughputHist, obs.NextSizes)
	}
	c.decisions++
	if obs.RemainingChunks < c.horizon {
		c.short++
	}
	return g
}

// TestMPCMatchesOracle checks every decision of RobustMPC, plain MPC and
// Oboe against the enumerating oracle over sampled RL1/RL2/RL3 instances,
// at horizons 1-7, with and without NextSizes. Each episode's tail covers
// RemainingChunks < Horizon. Horizons 6 and 7 run on the short RL1 videos
// only: the oracle enumerates 6^7 sequences per decision there.
func TestMPCMatchesOracle(t *testing.T) {
	perLevel := 8
	if testing.Short() {
		perLevel = 1
	}
	rng := rand.New(rand.NewSource(15))
	type inst struct {
		in    *Instance
		level env.RangeLevel
	}
	var insts []inst
	for _, level := range []env.RangeLevel{env.RL1, env.RL2, env.RL3} {
		space := env.ABRSpace(level)
		for i := 0; i < perLevel; i++ {
			in, err := NewInstance(space.Sample(rng), nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst{in, level})
		}
	}
	total, short := 0, 0
	for horizon := 1; horizon <= 7; horizon++ {
		for _, it := range insts {
			if horizon > 5 && it.level != env.RL1 {
				continue
			}
			pairs := []struct{ got, want Policy }{
				{&MPC{Horizon: horizon, Robust: true}, &oracleMPC{Horizon: horizon, Robust: true}},
				{&MPC{Horizon: horizon}, &oracleMPC{Horizon: horizon}},
			}
			if horizon <= 5 {
				pairs = append(pairs, struct{ got, want Policy }{
					&Oboe{Horizon: horizon}, &oracleOboe{Horizon: horizon}})
			}
			for _, p := range pairs {
				for _, noSizes := range []bool{false, true} {
					c := &oracleCheck{t: t, got: p.got, want: p.want, noSizes: noSizes, horizon: horizon}
					RunEpisode(it.in.NewSim(), c)
					total += c.decisions
					short += c.short
				}
			}
		}
	}
	t.Logf("%d decisions matched the oracle (%d with RemainingChunks < Horizon)", total, short)
	if !testing.Short() && total < 30000 {
		t.Fatalf("only %d decisions checked, want at least 30000", total)
	}
	if short == 0 {
		t.Fatal("no decision had RemainingChunks < Horizon")
	}
}

// histBytes encodes throughput samples for FuzzMPCSelect.
func histBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzMPCSelect checks MPC.Select against the enumerating oracle on raw
// observation fields: any buffer, buffer cap, chunk length and throughput
// samples (NaN and infinities included), any previous level, horizon and
// remaining-chunk count in range, with and without NextSizes. Each input
// runs three consecutive decisions so the robust error window fills.
func FuzzMPCSelect(f *testing.F) {
	// A typical mid-session state.
	f.Add(20.0, 60.0, 4.0, 1.0, 2, 5, 30, true, histBytes(1.5, 2, 2.5, 1.8, 2.2, 3))
	// Exact score ties: from the bottom rung with no rebuffering risk, a
	// one-chunk plan scores br - |br - 0.3|, and rungs 2 and 3 round to
	// the same highest score; the lower rung must win, though the planner
	// visits rung 3 first.
	f.Add(60.0, 60.0, 4.0, 1.0, 0, 1, 1, false, histBytes(1000, 1000, 1000))
	f.Add(60.0, 60.0, 4.0, 0.0, 0, 1, 40, false, histBytes(1000, 1000, 1000))
	// All-zero throughput history: the cold-start prediction.
	f.Add(0.0, 60.0, 4.0, 1.0, -1, 5, 48, true, histBytes(0, 0, 0, 0, 0, 0, 0, 0))
	// LastLevel = -1 with NextSizes hidden, and a LastLevel below -1.
	f.Add(8.0, 30.0, 2.0, 0.0, -1, 7, 100, false, histBytes(3, 4))
	f.Add(8.0, 30.0, 2.0, 1.0, -7, 3, 100, true, histBytes(3, 4))
	// Tiny predictions: downloads take ~1e300 s, every score is -Inf.
	f.Add(5.0, 60.0, 4.0, 1.0, 3, 5, 20, true, histBytes(1e-300, 1e-300, 1e-300))
	// Huge chunk sizes at depth 0 only: -Inf scores for some first levels.
	f.Add(5.0, 60.0, 4.0, 1e300, 3, 4, 20, true, histBytes(5, 5, 5))
	// Huge predictions, overflowing the harmonic mean, then an infinite
	// relative error in the robust window.
	f.Add(5.0, 60.0, 4.0, 1.0, 5, 5, 20, true, histBytes(1e308, 1e308, 1e308, math.Inf(1)))
	// NaN samples, a negative buffer and a horizon past the remaining chunks.
	f.Add(-3.0, 4.0, 10.0, 1.0, 1, 6, 2, true, histBytes(math.NaN(), 2, -1, 0.5))
	f.Fuzz(func(t *testing.T, buffer, maxBuffer, chunkLen, sizeScale float64, lastLevel, horizon, remaining int, robust bool, hist []byte) {
		v := &Video{BitratesKbps: DefaultBitratesKbps, ChunkLength: chunkLen}
		n := v.NumLevels()
		if lastLevel >= n {
			lastLevel %= n
		}
		remaining %= 500
		if remaining < 0 {
			remaining = -remaining
		}
		samples := make([]float64, max(HistLen, len(hist)/8))
		for i := 0; i < len(hist)/8; i++ {
			samples[len(samples)-len(hist)/8+i] = math.Float64frombits(binary.LittleEndian.Uint64(hist[8*i:]))
		}
		var sizes []float64
		if sizeScale > 0 {
			sizes = make([]float64, n)
			for l := range sizes {
				sizes[l] = v.BitrateMbps(l) * chunkLen * 1e6 / 8 * sizeScale
			}
		}
		obs := &Observation{
			Buffer:          buffer,
			MaxBuffer:       maxBuffer,
			LastLevel:       lastLevel,
			ThroughputHist:  samples,
			NextSizes:       sizes,
			RemainingChunks: remaining,
			TotalChunks:     remaining,
			Video:           v,
		}
		got := &MPC{Horizon: horizon % 8, Robust: robust}
		want := &oracleMPC{Horizon: horizon % 8, Robust: robust}
		for step := 0; step < 3; step++ {
			g, w := got.Select(obs), want.Select(obs)
			if g != w {
				t.Fatalf("step %d: Select = %d, oracle %d", step, g, w)
			}
			// Replay an earlier sample as the next measured throughput.
			pushHist(obs.ThroughputHist, samples[(step*5)%len(samples)])
			obs.LastLevel = g
		}
	})
}
