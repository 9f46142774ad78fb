package serve

import (
	"fmt"

	"github.com/genet-go/genet/internal/core"
)

// fallbackDecision answers a policy query with the use case's rule-based
// fallback — the degraded-mode answer when the learned model is
// quarantined. The policies (abr.Fallback, cc.Fallback, lb.Fallback) sit
// beside the observation encoders whose layout they invert, and are pure
// functions of the observation, so a degraded server is as deterministic as
// a healthy one. The observation length is validated against the use
// case's encoder, so a degraded server rejects malformed requests exactly
// like a healthy one.
func fallbackDecision(uc *core.UseCase, obs []float64) (Decision, error) {
	if len(obs) != uc.ObsSize {
		return Decision{}, fmt.Errorf("serve: observation has %d dims, %s fallback wants %d", len(obs), uc.Name, uc.ObsSize)
	}
	action, vec := uc.Fallback(obs)
	return Decision{Action: action, ActionVec: vec, Fallback: true}, nil
}
