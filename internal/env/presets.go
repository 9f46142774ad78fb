package env

import (
	"fmt"
	"strings"
)

// Dimension names shared between the environment spaces (this package) and
// the use-case simulators (internal/abr, internal/cc, internal/lb). The
// simulators read these dimensions off a Config to instantiate environments.
const (
	// ABR dimensions (Table 3). BWMinRatio expresses the "BW min/max"
	// parameter swept in Fig 10: the minimum bandwidth as a fraction of
	// the maximum.
	ABRMaxBuffer        = "max-buffer"         // seconds of playback buffer
	ABRChunkLength      = "chunk-length"       // seconds per video chunk
	ABRMinRTT           = "min-rtt"            // ms
	ABRVideoLength      = "video-length"       // seconds
	ABRBWChangeInterval = "bw-change-interval" // seconds
	ABRMaxBW            = "max-bw"             // Mbps
	ABRBWMinRatio       = "bw-min-ratio"       // min BW = ratio * max BW

	// CC dimensions (Table 4 plus the §A.2 delay-noise generator input).
	CCMaxBW            = "max-bw"             // Mbps
	CCMinRTT           = "min-rtt"            // ms (one-way latency*2 in the sim)
	CCBWChangeInterval = "bw-change-interval" // seconds
	CCLossRate         = "loss-rate"          // random loss probability
	CCQueue            = "queue"              // packets
	CCDelayNoise       = "delay-noise"        // ms of Gaussian per-packet noise

	// LB dimensions (Table 5).
	LBServiceRate = "service-rate" // max per-server service rate (MB/s)
	LBJobSize     = "job-size"     // mean job size, bytes
	LBJobInterval = "job-interval" // mean inter-arrival, ms
	LBNumJobs     = "num-jobs"     // jobs per episode
	LBQueueShuf   = "queue-shuffle-prob"
)

// RangeLevel selects one of the paper's nested training ranges: RL1 (small)
// through RL3 (full), Figure 2 and Tables 3-5.
type RangeLevel int

// Training-range levels in ascending width.
const (
	RL1 RangeLevel = iota + 1
	RL2
	RL3
)

// String implements fmt.Stringer.
func (r RangeLevel) String() string {
	switch r {
	case RL1:
		return "RL1"
	case RL2:
		return "RL2"
	case RL3:
		return "RL3"
	}
	return "RL?"
}

// ParseRangeLevel parses a level name (rl1, rl2 or rl3, any case).
func ParseRangeLevel(s string) (RangeLevel, error) {
	for _, r := range []RangeLevel{RL1, RL2, RL3} {
		if strings.EqualFold(s, r.String()) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q (want rl1|rl2|rl3)", s)
}

// ABRSpace returns the ABR configuration space of Table 3 at the given
// range level.
func ABRSpace(level RangeLevel) *Space {
	type r struct{ lo, hi float64 }
	rows := map[string]map[RangeLevel]r{
		ABRMaxBuffer:        {RL1: {2, 10}, RL2: {2, 50}, RL3: {2, 100}},
		ABRChunkLength:      {RL1: {1, 4}, RL2: {1, 6}, RL3: {1, 10}},
		ABRMinRTT:           {RL1: {20, 30}, RL2: {20, 220}, RL3: {20, 1000}},
		ABRVideoLength:      {RL1: {40, 45}, RL2: {40, 200}, RL3: {40, 400}},
		ABRBWChangeInterval: {RL1: {2, 2}, RL2: {2, 20}, RL3: {2, 100}},
		ABRMaxBW:            {RL1: {2, 5}, RL2: {2, 100}, RL3: {2, 1000}},
		ABRBWMinRatio:       {RL1: {0.4, 0.6}, RL2: {0.3, 0.8}, RL3: {0.1, 0.9}},
	}
	order := []string{ABRMaxBuffer, ABRChunkLength, ABRMinRTT, ABRVideoLength, ABRBWChangeInterval, ABRMaxBW, ABRBWMinRatio}
	dims := make([]Dimension, 0, len(order))
	for _, name := range order {
		rr := rows[name][level]
		dims = append(dims, Dimension{Name: name, Min: rr.lo, Max: rr.hi, Log: name == ABRMaxBW})
	}
	return MustSpace(dims...)
}

// ABRDefaults are the per-dimension default values of Table 3, used when a
// figure sweeps one parameter holding the rest fixed (Fig 10).
func ABRDefaults() map[string]float64 {
	return map[string]float64{
		ABRMaxBuffer:        60,
		ABRChunkLength:      4,
		ABRMinRTT:           80,
		ABRVideoLength:      196,
		ABRBWChangeInterval: 5,
		ABRMaxBW:            5,
		ABRBWMinRatio:       0.5,
	}
}

// CCSpace returns the CC configuration space of Table 4 at the given range
// level. The RL1/RL2 rows use the literal example sets from the table (the
// caption notes RL1/RL2 are 1/9 and 1/3 of the RL3 width; the table prints
// one concrete instance, which we reproduce).
func CCSpace(level RangeLevel) *Space {
	type r struct{ lo, hi float64 }
	rows := map[string]map[RangeLevel]r{
		CCMaxBW:            {RL1: {0.5, 7}, RL2: {0.4, 14}, RL3: {0.1, 100}},
		CCMinRTT:           {RL1: {205, 250}, RL2: {156, 288}, RL3: {10, 400}},
		CCBWChangeInterval: {RL1: {11, 13}, RL2: {3, 8}, RL3: {0, 30}},
		CCLossRate:         {RL1: {0.01, 0.014}, RL2: {0.007, 0.02}, RL3: {0, 0.05}},
		CCQueue:            {RL1: {2, 6}, RL2: {2, 11}, RL3: {2, 200}},
		CCDelayNoise:       {RL1: {0, 0}, RL2: {0, 2}, RL3: {0, 10}},
	}
	order := []string{CCMaxBW, CCMinRTT, CCBWChangeInterval, CCLossRate, CCQueue, CCDelayNoise}
	dims := make([]Dimension, 0, len(order))
	for _, name := range order {
		rr := rows[name][level]
		dims = append(dims, Dimension{
			Name: name, Min: rr.lo, Max: rr.hi,
			Integer: name == CCQueue,
			Log:     name == CCMaxBW || name == CCQueue,
		})
	}
	return MustSpace(dims...)
}

// CCDefaults are the Table 4 defaults.
func CCDefaults() map[string]float64 {
	return map[string]float64{
		CCMaxBW:            3.16,
		CCMinRTT:           100,
		CCBWChangeInterval: 7.5,
		CCLossRate:         0,
		CCQueue:            10,
		CCDelayNoise:       0,
	}
}

// LBSpace returns the LB configuration space of Table 5 at the given range
// level.
//
// Deviation from the literal Table 5 ranges: the paper's job-interval
// ranges are not dimensionally consistent with its service rates and job
// sizes (its own Fig 11 sweeps intervals far beyond the table's range), so
// the interval ranges here are rescaled to keep cluster utilization
// spanning roughly [0.1, 3] across the space — light to overloaded, the
// regime the paper's LB rewards (-2 to -7) imply.
func LBSpace(level RangeLevel) *Space {
	type r struct{ lo, hi float64 }
	rows := map[string]map[RangeLevel]r{
		LBServiceRate: {RL1: {0.1, 2}, RL2: {0.1, 5}, RL3: {0.1, 10}},
		LBJobSize:     {RL1: {100, 200}, RL2: {100, 1e3}, RL3: {1, 1e4}},
		LBJobInterval: {RL1: {0.08, 0.15}, RL2: {0.05, 0.3}, RL3: {0.02, 0.6}},
		LBNumJobs:     {RL1: {10, 100}, RL2: {10, 1000}, RL3: {10, 5000}},
		LBQueueShuf:   {RL1: {0.1, 0.2}, RL2: {0.1, 0.5}, RL3: {0.1, 1}},
	}
	order := []string{LBServiceRate, LBJobSize, LBJobInterval, LBNumJobs, LBQueueShuf}
	dims := make([]Dimension, 0, len(order))
	for _, name := range order {
		rr := rows[name][level]
		dims = append(dims, Dimension{
			Name: name, Min: rr.lo, Max: rr.hi,
			Integer: name == LBNumJobs,
			Log:     name == LBServiceRate || name == LBJobSize || name == LBJobInterval,
		})
	}
	return MustSpace(dims...)
}

// LBDefaults are the Table 5 defaults.
func LBDefaults() map[string]float64 {
	return map[string]float64{
		LBServiceRate: 2.0,
		LBJobSize:     2000,
		LBJobInterval: 0.1,
		LBNumJobs:     2000,
		LBQueueShuf:   0.5,
	}
}
