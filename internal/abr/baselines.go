package abr

import (
	"math"
	"sort"
)

// BBA is the buffer-based ABR algorithm of Huang et al. (SIGCOMM 2014): the
// bitrate is a piecewise-linear function of the playback buffer between a
// reservoir and a cushion.
type BBA struct {
	// ReservoirSec is the buffer level below which BBA plays the lowest
	// rung. Defaults to 5 s when zero.
	ReservoirSec float64
	// CushionFrac is the fraction of the buffer capacity at which BBA
	// reaches the top rung. Defaults to 0.9 when zero.
	CushionFrac float64
}

// Name implements Policy.
func (*BBA) Name() string { return "BBA" }

// Reset implements Policy.
func (*BBA) Reset() {}

// Select implements Policy.
func (b *BBA) Select(obs *Observation) int {
	reservoir := b.ReservoirSec
	if reservoir <= 0 {
		reservoir = 5
	}
	cushionFrac := b.CushionFrac
	if cushionFrac <= 0 {
		cushionFrac = 0.9
	}
	upper := cushionFrac * obs.MaxBuffer
	if upper <= reservoir {
		upper = reservoir + 1
	}
	n := obs.Video.NumLevels()
	switch {
	case obs.Buffer <= reservoir:
		return 0
	case obs.Buffer >= upper:
		return n - 1
	default:
		frac := (obs.Buffer - reservoir) / (upper - reservoir)
		level := int(frac * float64(n-1))
		if level >= n {
			level = n - 1
		}
		return level
	}
}

// RateBased picks the highest rung whose bitrate is below the harmonic-mean
// throughput prediction.
type RateBased struct{}

// Name implements Policy.
func (RateBased) Name() string { return "RateBased" }

// Reset implements Policy.
func (RateBased) Reset() {}

// Select implements Policy.
func (RateBased) Select(obs *Observation) int {
	pred := predictThroughput(obs.ThroughputHist)
	level := 0
	for l := 0; l < obs.Video.NumLevels(); l++ {
		if obs.Video.BitrateMbps(l) <= pred {
			level = l
		}
	}
	return level
}

// MPC implements RobustMPC (Yin et al., SIGCOMM 2015): model-predictive
// control over a short horizon using a harmonic-mean throughput prediction
// discounted by the maximum recent prediction error.
type MPC struct {
	// Horizon is the look-ahead depth in chunks (default 5).
	Horizon int
	// Robust disables the error discount when false (plain MPC).
	Robust bool

	lastPrediction float64
	errs           [5]float64 // recent relative prediction errors, a ring
	nErrs, errPos  int

	// Planner scratch, sized from the ladder and horizon on first use:
	// tab holds the per-call tables, path the depth-first stack of levels
	// (path[0] is the observation's last level).
	tab  []float64
	path []int
}

// NewRobustMPC returns RobustMPC with the paper's default horizon.
func NewRobustMPC() *MPC { return &MPC{Horizon: 5, Robust: true} }

// Name implements Policy.
func (m *MPC) Name() string {
	if m.Robust {
		return "RobustMPC"
	}
	return "MPC"
}

// Reset implements Policy.
func (m *MPC) Reset() {
	m.lastPrediction = 0
	m.nErrs, m.errPos = 0, 0
}

// Select implements Policy.
func (m *MPC) Select(obs *Observation) int {
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
			m.errs[m.errPos] = math.Abs(m.lastPrediction-actual) / actual
			m.errPos = (m.errPos + 1) % len(m.errs)
			m.nErrs = min(m.nErrs+1, len(m.errs))
		}
	}
	pred := predictThroughput(obs.ThroughputHist)
	m.lastPrediction = pred
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errs[:m.nErrs] {
			maxErr = max(maxErr, e)
		}
		pred /= 1 + maxErr
	}
	if pred <= 0 {
		pred = 0.1
	}
	return m.plan(obs, horizon, pred)
}

// plan returns the first level of the highest-scoring level sequence over
// the next horizon chunks at throughput prediction pred, breaking score
// ties toward the lowest first level. It is an exact branch and bound over
// the full enumeration; see "RobustMPC planner" in DESIGN.md for why the
// pruning never changes the answer.
func (m *MPC) plan(obs *Observation, horizon int, pred float64) int {
	v := obs.Video
	n := v.NumLevels()
	if need := (n+5)*n + 2*horizon; cap(m.tab) < need {
		m.tab = make([]float64, need)
	}
	if cap(m.path) < horizon+1 {
		m.path = make([]int, horizon+1)
	}
	br, brTerm, dlNom, dl0 := m.tab[:n], m.tab[n:2*n], m.tab[2*n:3*n], m.tab[3*n:4*n]
	chg := m.tab[4*n : (n+5)*n] // row last+1 holds the change term from level last
	buf := m.tab[(n+5)*n : (n+5)*n+horizon]
	score := m.tab[(n+5)*n+horizon : (n+5)*n+2*horizon]
	path := m.path[:horizon+1]

	brMax := math.Inf(-1)
	for l := 0; l < n; l++ {
		br[l] = v.BitrateMbps(l)
		brTerm[l] = RewardBitrateCoef * br[l]
		brMax = max(brMax, brTerm[l])
		size := br[l] * v.ChunkLength // Mbit nominal
		dlNom[l] = size / pred
		dl0[l] = dlNom[l]
		if obs.NextSizes != nil {
			size = obs.NextSizes[l] * 8 / 1e6
			dl0[l] = size / pred
		}
	}
	for last := -1; last < n; last++ {
		row := chg[(last+1)*n : (last+2)*n]
		for l := range row {
			change := 0.0
			if last >= 0 {
				change = math.Abs(br[l] - br[last])
			}
			row[l] = RewardChangeCoef * change
		}
	}

	// Iterative depth-first search, levels top-down. At depth d, path[d]
	// is the previous level and path[d+1] the level being tried, counting
	// down from n-1; buf[d] and score[d] are the state before choosing it.
	best, bestScore := 0, math.Inf(-1)
	path[0] = max(obs.LastLevel, -1)
	buf[0], score[0] = obs.Buffer, 0
	path[1] = n
	for d := 0; d >= 0; {
		path[d+1]--
		l := path[d+1]
		if l < 0 {
			d--
			continue
		}
		dl := dlNom[l]
		if d == 0 {
			dl = dl0[l]
		}
		rebuf := max(0, dl-buf[d])
		r := brTerm[l] + RewardRebufCoef*rebuf + chg[(path[d]+1)*n+l]
		s := score[d] + r
		first := path[1]
		if d+1 == horizon {
			if s > bestScore || (s == bestScore && first < best) {
				best, bestScore = first, s
			}
			continue
		}
		// Every step's reward is at most brMax, and rounded addition is
		// monotone, so no leaf below can score above ub.
		ub := s
		for k := d + 1; k < horizon; k++ {
			ub += brMax
		}
		if ub < bestScore || (ub == bestScore && first >= best) {
			continue
		}
		nb := max(0, buf[d]-dl) + v.ChunkLength
		if nb > obs.MaxBuffer {
			nb = obs.MaxBuffer
		}
		d++
		buf[d], score[d] = nb, s
		path[d+1] = n
	}
	return best
}

// Naive is the deliberately unreasonable baseline from §5.4 ("choosing the
// highest bitrate when rebuffer[ing]"): it requests the top rung whenever
// the previous chunk stalled and the bottom rung otherwise.
type Naive struct{}

// Name implements Policy.
func (Naive) Name() string { return "NaiveABR" }

// Reset implements Policy.
func (Naive) Reset() {}

// Select implements Policy.
func (Naive) Select(obs *Observation) int {
	if obs.LastRebuffer > 0 {
		return obs.Video.NumLevels() - 1
	}
	return 0
}

// OmniscientMPC is the "optimal" reference of Strawman 3 (§3): MPC driven by
// the ground-truth future bandwidth rather than a prediction. It plans with
// a beam search over the next omniscientHorizon chunks using exact download
// times from the live session's trace, so it upper-bounds prediction-based
// MPC at equal depth. It must only be used with the sim passed at
// construction.
type OmniscientMPC struct {
	sim *Sim
}

// The oracle's planning depth in chunks and its beam width.
const (
	omniscientHorizon = 6
	omniscientBeam    = 12
)

// NewOmniscientMPC builds the oracle for a specific session.
func NewOmniscientMPC(sim *Sim) *OmniscientMPC {
	return &OmniscientMPC{sim: sim}
}

// Name implements Policy.
func (*OmniscientMPC) Name() string { return "Omniscient" }

// Reset implements Policy.
func (*OmniscientMPC) Reset() {}

// beamState is one partial plan during the oracle's beam search.
type beamState struct {
	clock     float64
	buffer    float64
	lastLevel int
	score     float64
	first     int // level chosen at depth 0
}

// Select implements Policy.
func (o *OmniscientMPC) Select(obs *Observation) int {
	horizon := omniscientHorizon
	if r := obs.RemainingChunks; r < horizon {
		horizon = r
	}
	if horizon == 0 {
		return 0
	}
	n := obs.Video.NumLevels()
	frontier := []beamState{{
		clock: o.sim.Clock(), buffer: obs.Buffer, lastLevel: obs.LastLevel, first: -1,
	}}
	for depth := 0; depth < horizon; depth++ {
		chunk := o.sim.Chunk() + depth
		next := make([]beamState, 0, len(frontier)*n)
		for _, st := range frontier {
			for l := 0; l < n; l++ {
				dl := o.sim.FutureDownloadTime(l, chunk, st.clock)
				rebuf := math.Max(0, dl-st.buffer)
				nb := math.Max(0, st.buffer-dl) + obs.Video.ChunkLength
				wait := 0.0
				if nb > obs.MaxBuffer {
					wait = nb - obs.MaxBuffer
					nb = obs.MaxBuffer
				}
				change := 0.0
				if st.lastLevel >= 0 {
					change = math.Abs(obs.Video.BitrateMbps(l) - obs.Video.BitrateMbps(st.lastLevel))
				}
				r := RewardBitrateCoef*obs.Video.BitrateMbps(l) + RewardRebufCoef*rebuf + RewardChangeCoef*change
				first := st.first
				if first < 0 {
					first = l
				}
				next = append(next, beamState{
					clock: st.clock + dl + wait, buffer: nb,
					lastLevel: l, score: st.score + r, first: first,
				})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].score > next[j].score })
		if len(next) > omniscientBeam {
			next = next[:omniscientBeam]
		}
		frontier = next
	}
	// Terminal value: buffered seconds hedge against stalls beyond the
	// horizon. Without this the planner runs the buffer to zero at the
	// horizon edge and loses to conservative MPC on long sessions.
	const terminalBufferValue = 0.3 // reward per buffered second at horizon end
	best := frontier[0]
	bestScore := math.Inf(-1)
	for _, st := range frontier {
		s := st.score + terminalBufferValue*st.buffer
		if s > bestScore {
			bestScore = s
			best = st
		}
	}
	if best.first < 0 {
		return 0
	}
	return best.first
}
