package cc

import "testing"

func TestFallback(t *testing.T) {
	clean := make([]float64, ObsSize)
	if a := Fallback(clean); a <= 0 {
		t.Fatalf("clean network got action %v, want gentle increase", a)
	}

	lossy := make([]float64, ObsSize)
	lossy[ObsSize-2] = 0.05 // 5% loss in the newest MI
	if a := Fallback(lossy); a >= 0 {
		t.Fatalf("lossy network got action %v, want decrease", a)
	}

	inflated := make([]float64, ObsSize)
	inflated[ObsSize-4] = 0.5 // heavy latency inflation, no loss
	if a := Fallback(inflated); a >= 0 {
		t.Fatalf("latency-inflated network got action %v, want decrease", a)
	}
}

// TestFallbackReadsNewestMI ties Fallback's indices to the encoder: it
// reacts to loss in the newest monitor interval the encoder writes, and not
// to loss in an older one.
func TestFallbackReadsNewestMI(t *testing.T) {
	lossy := MIStats{SendRate: 10, Throughput: 10, LossRate: 0.05, AvgLatency: 0.05, BaseRTT: 0.05}
	clean := MIStats{SendRate: 10, Throughput: 10, AvgLatency: 0.05, BaseRTT: 0.05}
	var enc encoder
	enc.reset(10)
	obs := make([]float64, ObsSize)
	enc.push(lossy)
	enc.encode(obs)
	if a := Fallback(obs); a >= 0 {
		t.Fatalf("loss in the newest MI got action %v, want decrease", a)
	}
	enc.push(clean)
	enc.encode(obs)
	if a := Fallback(obs); a <= 0 {
		t.Fatalf("loss only in an older MI got action %v, want increase", a)
	}
}
