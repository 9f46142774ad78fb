// Package serve is the policy-serving data plane: it loads a trained
// model.bin, answers Decide() queries in-process and over HTTP, atomically
// hot-swaps the policy when a watched file or run directory publishes a new
// model, and reports decision latency through internal/metrics.
//
// The package turns the repository's training output into an operated
// artifact. Its contracts:
//
//   - Decisions are lock-free reads of an atomic model pointer; a swap is
//     one pointer store, so in-flight decisions always run against a
//     complete model (the old or the new, never a mix).
//   - A candidate model is fully loaded and validated off to the side
//     before it is published. A torn, corrupt, or architecture-mismatched
//     file is rejected and the live policy keeps serving — rejection is an
//     observable counter, never an outage.
//   - Everything is deterministic given the model bytes: the served policy
//     acts greedily (argmax / policy mean), so identical observations get
//     identical actions on every replica.
package serve

import (
	"fmt"
	"io"
	"os"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/rl"
)

// Decision is the result of one policy query. Exactly one of Action and
// ActionVec is meaningful, selected by the use case: discrete policies
// (abr, lb) fill Action, continuous policies (cc) fill ActionVec.
type Decision struct {
	// Action is the discrete action index (bitrate level for abr, server
	// index for lb). -1 for continuous use cases.
	Action int `json:"action"`
	// ActionVec is the continuous action vector (the rate action for cc).
	// Nil for discrete use cases.
	ActionVec []float64 `json:"action_vec,omitempty"`
	// ModelVersion is the serving generation of the model that made this
	// decision (1 for the initially loaded model, +1 per accepted swap).
	// Zero on fallback decisions: no model made them.
	ModelVersion uint64 `json:"model_version"`
	// Fallback marks a decision served by the rule-based degraded-mode
	// policy instead of the learned model.
	Fallback bool `json:"fallback,omitempty"`
}

// Model is one loaded, validated, immutable policy. It is safe for
// concurrent Decide calls: the underlying networks are only read.
type Model struct {
	uc       *core.UseCase
	version  uint64 // serving generation, stamped by Server.swapIn
	discrete *rl.DiscreteAgent
	gaussian *rl.GaussianAgent
}

// ReadModel parses and validates a model.bin for the given use case. The
// container's section CRC covers every model byte, and the architecture is
// checked against the use case's canonical configuration (observation
// width, action space, hidden sizes), so a cc model handed to an abr server
// — or any torn or corrupt file — is an error here, before anything is
// published to the data plane.
func ReadModel(useCase string, r io.Reader) (*Model, error) {
	uc, err := core.LookupUseCase(useCase)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	a, err := uc.LoadAgent(r)
	if err != nil {
		return nil, fmt.Errorf("serve: %s model: %w", uc.Name, err)
	}
	return &Model{uc: uc, discrete: a.Discrete, gaussian: a.Gaussian}, nil
}

// LoadModel reads and validates a model file.
func LoadModel(useCase, path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	return ReadModel(useCase, f)
}

// UseCase returns the use case this model serves.
func (m *Model) UseCase() string { return m.uc.Name }

// Version returns the model's serving generation (0 until a Server adopts
// it).
func (m *Model) Version() uint64 { return m.version }

// ObsSize returns the observation vector length Decide expects.
func (m *Model) ObsSize() int {
	if m.discrete != nil {
		return m.discrete.Config().ObsSize
	}
	return m.gaussian.Config().ObsSize
}

// Discrete reports whether the model's action space is discrete.
func (m *Model) Discrete() bool { return m.discrete != nil }

// NumActions returns the discrete action count (0 for continuous models).
func (m *Model) NumActions() int {
	if m.discrete == nil {
		return 0
	}
	return m.discrete.Config().NumActions
}

// ActionDim returns the continuous action dimension (0 for discrete
// models).
func (m *Model) ActionDim() int {
	if m.gaussian == nil {
		return 0
	}
	return m.gaussian.Config().ActionDim
}

// Decide evaluates the policy at obs: argmax action for discrete models,
// policy mean for continuous ones — the same deterministic inference paths
// evaluation uses (rl.DiscreteAgent.Greedy / rl.GaussianAgent.Mean).
func (m *Model) Decide(obs []float64) (Decision, error) {
	if len(obs) != m.ObsSize() {
		return Decision{}, fmt.Errorf("serve: observation has %d dims, %s model wants %d", len(obs), m.uc.Name, m.ObsSize())
	}
	if m.discrete != nil {
		return Decision{Action: m.discrete.Greedy(obs), ModelVersion: m.version}, nil
	}
	return Decision{Action: -1, ActionVec: m.gaussian.Mean(obs), ModelVersion: m.version}, nil
}
