package abr

import (
	"github.com/genet-go/genet/internal/stats"
)

// Oboe approximates Oboe (Akhtar et al., SIGCOMM 2018), which the paper's
// footnote 3 singles out as "a very competitive baseline": it auto-tunes
// RobustMPC's conservatism to the current network state. The real system
// precomputes the best MPC discount per (bandwidth mean, variance) bucket
// offline; this implementation uses the closed-form proxy of discounting
// the throughput prediction by its coefficient of variation — volatile
// links get conservative predictions, stable links aggressive ones — and
// otherwise reuses the MPC planner.
type Oboe struct {
	// Horizon is the look-ahead depth in chunks (default 5).
	Horizon int
	// Sensitivity scales how strongly variance discounts the prediction
	// (default 1).
	Sensitivity float64

	mpc MPC
}

// NewOboe returns an Oboe baseline with defaults.
func NewOboe() *Oboe { return &Oboe{Horizon: 5, Sensitivity: 1} }

// Name implements Policy.
func (*Oboe) Name() string { return "Oboe" }

// Reset implements Policy.
func (o *Oboe) Reset() { o.mpc.Reset() }

// Select implements Policy.
func (o *Oboe) Select(obs *Observation) int {
	horizon := o.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	sens := o.Sensitivity
	if sens <= 0 {
		sens = 1
	}

	// Estimate bandwidth state from the non-zero throughput history.
	var tail []float64
	for _, v := range obs.ThroughputHist {
		if v > 0 {
			tail = append(tail, v)
		}
	}
	if len(tail) < 2 {
		// Cold start: fall back to plain RobustMPC behaviour.
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

	// Plan with the tuned prediction using the MPC planner.
	return o.mpc.plan(obs, min(horizon, max(1, obs.RemainingChunks)), pred)
}
