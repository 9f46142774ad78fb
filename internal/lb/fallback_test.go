package lb

import "testing"

func TestFallback(t *testing.T) {
	o := make([]float64, ObsSize)
	for i := 0; i < NumServers; i++ {
		o[2+i] = 0.9
	}
	o[2+4] = 0.1
	if a := Fallback(o); a != 4 {
		t.Fatalf("least-load decision = %d, want server 4", a)
	}
	// Ties break to the first index, keeping the policy deterministic.
	o[2+1] = 0.1
	if a := Fallback(o); a != 1 {
		t.Fatalf("tie broke to %d, want first least-loaded index 1", a)
	}
}
