package abr

import (
	"math/rand"
	"testing"
)

// obsWithBuffer builds an observation whose only meaningful feature is the
// squashed buffer occupancy for bufSec seconds.
func obsWithBuffer(bufSec float64) []float64 {
	o := make([]float64, ObsSize)
	o[fallbackObsBuffer] = bufSec / (bufSec + 10)
	return o
}

func TestFallback(t *testing.T) {
	n := len(DefaultBitratesKbps)
	if a := Fallback(obsWithBuffer(2)); a != 0 {
		t.Fatalf("starved buffer picked level %d, want lowest bitrate", a)
	}
	if a := Fallback(obsWithBuffer(30)); a != n-1 {
		t.Fatalf("full buffer picked level %d, want top %d", a, n-1)
	}
	// Midpoint of [reservoir, cushion] lands mid-ladder.
	if a := Fallback(obsWithBuffer(12.5)); a <= 0 || a >= n-1 {
		t.Fatalf("mid buffer picked level %d, want interior", a)
	}
	// The rate map is monotone in buffer occupancy.
	prev := -1
	for b := 0.0; b <= 40; b += 0.5 {
		a := Fallback(obsWithBuffer(b))
		if a < prev {
			t.Fatalf("bitrate not monotone: buffer %.1fs picked %d after %d", b, a, prev)
		}
		prev = a
	}
}

// TestFallbackReadsEncodedBuffer ties Fallback's buffer index to the
// encoder: the feature it inverts is the one AppendObsVector writes.
func TestFallbackReadsEncodedBuffer(t *testing.T) {
	v, err := NewVideo(192, 4, DefaultBitratesKbps, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{2, 12.5, 30} {
		obs := &Observation{Video: v, LastLevel: -1, Buffer: b, MaxBuffer: 60, TotalChunks: 48}
		if got, want := Fallback(AppendObsVector(nil, obs)), Fallback(obsWithBuffer(b)); got != want {
			t.Fatalf("buffer %.1fs: encoded observation picked %d, want %d", b, got, want)
		}
	}
}
