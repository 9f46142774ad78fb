// Package abr implements a chunk-level adaptive-bitrate video streaming
// simulator in the style of Pensieve's (the first Genet use case), together
// with the rule-based ABR baselines the paper evaluates: buffer-based BBA,
// RobustMPC, a rate-based policy, the deliberately naive baseline from §5.4,
// and an offline dynamic-programming optimal used by the gap-to-optimum
// strawman.
//
// The simulator models a client downloading fixed-length video chunks over a
// bandwidth trace: each chunk is available at several bitrates, download
// time follows the trace's time-varying capacity plus one RTT of latency,
// and the playback buffer drains in real time. The per-chunk reward follows
// Table 1 of the paper:
//
//	reward_i = β·bitrate_i + α·rebuffer_i + γ·|bitrate_i − bitrate_{i−1}|
//
// with α=−10 (rebuffering seconds), β=1 (bitrate in Mbps) and γ=−1 (bitrate
// change in Mbps). Episode reward is reported as the mean over chunks so
// that rewards remain comparable across video lengths.
package abr

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/genet-go/genet/internal/trace"
)

// Reward coefficients from Table 1.
const (
	RewardRebufCoef   = -10.0 // per second of rebuffering
	RewardBitrateCoef = 1.0   // per Mbps of selected bitrate
	RewardChangeCoef  = -1.0  // per Mbps of bitrate change
)

// DefaultBitratesKbps is the Pensieve "EnvivioDash3" bitrate ladder.
var DefaultBitratesKbps = []float64{300, 750, 1200, 1850, 2850, 4300}

// Video describes the content being streamed: a bitrate ladder and
// per-chunk sizes (bytes) for each ladder rung.
type Video struct {
	BitratesKbps []float64
	ChunkLength  float64     // seconds per chunk
	Sizes        [][]float64 // Sizes[level][chunk] in bytes
}

// NumChunks returns the number of chunks in the video.
func (v *Video) NumChunks() int {
	if len(v.Sizes) == 0 {
		return 0
	}
	return len(v.Sizes[0])
}

// NumLevels returns the number of bitrate rungs.
func (v *Video) NumLevels() int { return len(v.BitratesKbps) }

// BitrateMbps returns the ladder bitrate of level in Mbps.
func (v *Video) BitrateMbps(level int) float64 { return v.BitratesKbps[level] / 1000 }

// NewVideo synthesizes a video of the given play length (seconds) and chunk
// length, with per-chunk size variation of ±5% around the nominal
// bitrate·duration (variable-bitrate encoding noise), drawn from rng.
func NewVideo(lengthSec, chunkLen float64, bitratesKbps []float64, rng *rand.Rand) (*Video, error) {
	return NewVideoInto(nil, lengthSec, chunkLen, bitratesKbps, rng)
}

// NewVideoInto is NewVideo writing into prev's backing arrays when prev is
// non-nil, for allocation-free per-episode regeneration in the vectorized
// training loop. The rng consumption and the resulting video are identical
// to NewVideo.
func NewVideoInto(prev *Video, lengthSec, chunkLen float64, bitratesKbps []float64, rng *rand.Rand) (*Video, error) {
	if chunkLen <= 0 {
		return nil, fmt.Errorf("abr: non-positive chunk length %f", chunkLen)
	}
	if lengthSec < chunkLen {
		return nil, fmt.Errorf("abr: video length %f shorter than one chunk %f", lengthSec, chunkLen)
	}
	if len(bitratesKbps) < 2 {
		return nil, fmt.Errorf("abr: need at least 2 bitrates, got %d", len(bitratesKbps))
	}
	for i := 1; i < len(bitratesKbps); i++ {
		if bitratesKbps[i] <= bitratesKbps[i-1] {
			return nil, fmt.Errorf("abr: bitrates must be ascending")
		}
	}
	n := int(math.Round(lengthSec / chunkLen))
	if n < 1 {
		n = 1
	}
	v := prev
	if v == nil {
		v = &Video{}
	}
	v.BitratesKbps = append(v.BitratesKbps[:0], bitratesKbps...)
	v.ChunkLength = chunkLen
	if cap(v.Sizes) < len(bitratesKbps) {
		v.Sizes = make([][]float64, len(bitratesKbps))
	} else {
		v.Sizes = v.Sizes[:len(bitratesKbps)]
	}
	for l, br := range bitratesKbps {
		if cap(v.Sizes[l]) < n {
			v.Sizes[l] = make([]float64, n)
		} else {
			v.Sizes[l] = v.Sizes[l][:n]
		}
		for c := 0; c < n; c++ {
			nominal := br * 1000 / 8 * chunkLen // bytes
			v.Sizes[l][c] = nominal * (0.95 + 0.1*rng.Float64())
		}
	}
	return v, nil
}

// Sim is one streaming session: a video played over a bandwidth trace.
// Policies drive it by calling Next once per chunk.
type Sim struct {
	video     *Video
	trace     *trace.Trace
	rttSec    float64
	maxBuffer float64 // seconds

	chunk     int     // next chunk index to download
	clock     float64 // seconds since session start (maps into trace time)
	buffer    float64 // seconds of video buffered
	lastLevel int
	started   bool
	traceCur  int // trace lookup cursor for the download integration loop
}

// SimConfig bundles the session parameters a configuration controls.
type SimConfig struct {
	RTTMs        float64
	MaxBufferSec float64
}

// NewSim builds a session. The trace is replayed (wrapped) if the download
// outlasts it.
func NewSim(v *Video, tr *trace.Trace, cfg SimConfig) (*Sim, error) {
	s := new(Sim)
	if err := s.Init(v, tr, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Init resets s in place to a fresh session over the given content, exactly
// as NewSim would construct it. It lets the vectorized training loop reuse
// one Sim per slot across episodes instead of allocating one per Reset.
func (s *Sim) Init(v *Video, tr *trace.Trace, cfg SimConfig) error {
	if v.NumChunks() == 0 {
		return fmt.Errorf("abr: empty video")
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	if cfg.MaxBufferSec <= 0 {
		return fmt.Errorf("abr: non-positive max buffer %f", cfg.MaxBufferSec)
	}
	*s = Sim{
		video:     v,
		trace:     tr,
		rttSec:    math.Max(0, cfg.RTTMs) / 1000,
		maxBuffer: cfg.MaxBufferSec,
		lastLevel: -1,
	}
	return nil
}

// Video returns the session's video.
func (s *Sim) Video() *Video { return s.video }

// Done reports whether all chunks have been downloaded.
func (s *Sim) Done() bool { return s.chunk >= s.video.NumChunks() }

// Chunk returns the index of the next chunk to download.
func (s *Sim) Chunk() int { return s.chunk }

// Buffer returns the current playback buffer in seconds.
func (s *Sim) Buffer() float64 { return s.buffer }

// LastLevel returns the previously selected bitrate level, or -1 before the
// first chunk.
func (s *Sim) LastLevel() int { return s.lastLevel }

// Clock returns the session time in seconds.
func (s *Sim) Clock() float64 { return s.clock }

// StepResult reports the outcome of downloading one chunk.
type StepResult struct {
	Level        int
	BitrateMbps  float64
	DownloadTime float64 // seconds to fetch the chunk
	Rebuffer     float64 // seconds the player stalled
	WaitTime     float64 // seconds spent idle because the buffer was full
	Throughput   float64 // achieved Mbps for this chunk
	Reward       float64
	Done         bool
}

// Next downloads the next chunk at the given ladder level and advances the
// session. It panics if the session is already done or level is invalid —
// both are caller bugs.
func (s *Sim) Next(level int) StepResult {
	if s.Done() {
		panic("abr: Next called on finished session")
	}
	if level < 0 || level >= s.video.NumLevels() {
		panic(fmt.Sprintf("abr: invalid level %d", level))
	}
	sizeBytes := s.video.Sizes[level][s.chunk]
	dl := s.downloadTime(sizeBytes)

	// Drain the buffer while downloading; stall if it empties.
	rebuf := 0.0
	if dl > s.buffer {
		rebuf = dl - s.buffer
		s.buffer = 0
	} else {
		s.buffer -= dl
	}
	if !s.started {
		// Startup delay is not counted as rebuffering (Pensieve convention).
		rebuf = 0
		s.started = true
	}
	s.buffer += s.video.ChunkLength
	s.clock += dl

	// If the buffer exceeds its cap, idle until there is room.
	wait := 0.0
	if s.buffer > s.maxBuffer {
		wait = s.buffer - s.maxBuffer
		s.buffer = s.maxBuffer
		s.clock += wait
	}

	br := s.video.BitrateMbps(level)
	change := 0.0
	if s.lastLevel >= 0 {
		change = math.Abs(br - s.video.BitrateMbps(s.lastLevel))
	}
	reward := RewardBitrateCoef*br + RewardRebufCoef*rebuf + RewardChangeCoef*change

	res := StepResult{
		Level:        level,
		BitrateMbps:  br,
		DownloadTime: dl,
		Rebuffer:     rebuf,
		WaitTime:     wait,
		Throughput:   sizeBytes * 8 / 1e6 / math.Max(dl-s.rttSec, 1e-6),
		Reward:       reward,
	}
	s.lastLevel = level
	s.chunk++
	res.Done = s.Done()
	return res
}

// downloadTime integrates the trace's capacity from the current clock until
// sizeBytes have been transferred, plus one RTT of request latency.
func (s *Sim) downloadTime(sizeBytes float64) float64 {
	remaining := sizeBytes * 8 / 1e6 // Mbit
	t := s.clock + s.rttSec
	const step = 0.05 // seconds of integration granularity
	for i := 0; remaining > 0; i++ {
		var bw float64 // Mbps
		bw, s.traceCur = s.trace.AtWrappedHint(t, s.traceCur)
		if bw <= 1e-9 {
			bw = 1e-9
		}
		sent := bw * step
		if sent >= remaining {
			t += remaining / bw
			remaining = 0
			break
		}
		remaining -= sent
		t += step
		if i > 4_000_000 {
			// Safety valve: pathological traces cannot hang the simulator.
			t += remaining / 1e-9
			remaining = 0
		}
	}
	return t - s.clock
}

// FutureDownloadTime returns the exact time to download the given chunk at
// the given level if the transfer starts at clock time atClock. It reads the
// ground-truth trace and chunk sizes and is intended for oracle policies
// (OmniscientMPC) and offline-optimal computations only.
func (s *Sim) FutureDownloadTime(level, chunk int, atClock float64) float64 {
	if chunk >= s.video.NumChunks() {
		chunk = s.video.NumChunks() - 1
	}
	saved := s.clock
	s.clock = atClock
	dl := s.downloadTime(s.video.Sizes[level][chunk])
	s.clock = saved
	return dl
}

// NextSizesInto writes the byte sizes of the upcoming chunk at every level
// into dst (overwriting from dst[:0]) and returns them, so per-step callers
// can reuse one buffer. Returns nil when the session is done, leaving dst's
// backing array intact for the next episode.
func (s *Sim) NextSizesInto(dst []float64) []float64 {
	if s.Done() {
		return nil
	}
	dst = dst[:0]
	for l := 0; l < s.video.NumLevels(); l++ {
		dst = append(dst, s.video.Sizes[l][s.chunk])
	}
	return dst
}

// RemainingChunks returns how many chunks are left to download.
func (s *Sim) RemainingChunks() int { return s.video.NumChunks() - s.chunk }
