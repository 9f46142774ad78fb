package core

import (
	"fmt"
	"io"
	"reflect"

	"github.com/genet-go/genet/internal/rl"
)

// AgentStateHarness is implemented by harnesses whose RL model supports
// lossless state capture (networks plus optimizer moments and counters). It
// is a separate optional interface — like MetricsSetter — so third-party
// Harness implementations keep compiling; the checkpoint subsystem requires
// it and reports a clear error for harnesses that lack it.
type AgentStateHarness interface {
	// SaveAgentState writes the agent's complete training state.
	SaveAgentState(w io.Writer) error
	// LoadAgentState replaces the agent with the state read from r. The
	// restored configuration must match the harness's current agent; the
	// runtime attachments (rl.Runtime) carry over from the replaced agent.
	LoadAgentState(r io.Reader) error
}

// replaceAgent swaps *cur for the agent state load reads from r after
// checking the configs agree. The replaced agent's rl.Runtime (worker caps,
// metrics, guard, faults, flight recorder) carries over whole, so a resumed
// or rolled-back run keeps every attachment. parts exposes an agent's
// config and runtime.
func replaceAgent[A, C any](cur **A, r io.Reader, load func(io.Reader) (*A, error), parts func(*A) (C, *rl.Runtime)) error {
	loaded, err := load(r)
	if err != nil {
		return err
	}
	cfg, rt := parts(loaded)
	oldCfg, oldRT := parts(*cur)
	if !reflect.DeepEqual(cfg, oldCfg) {
		return fmt.Errorf("core: checkpointed agent config %+v does not match harness config %+v", cfg, oldCfg)
	}
	*rt = *oldRT
	*cur = loaded
	return nil
}

func discreteParts(a *rl.DiscreteAgent) (rl.DiscreteConfig, *rl.Runtime) {
	return a.Config(), &a.Runtime
}
func gaussianParts(a *rl.GaussianAgent) (rl.GaussianConfig, *rl.Runtime) {
	return a.Config(), &a.Runtime
}

// SaveAgentState implements AgentStateHarness.
func (h *ABRHarness) SaveAgentState(w io.Writer) error { return h.Agent.SaveState(w) }

// LoadAgentState implements AgentStateHarness.
func (h *ABRHarness) LoadAgentState(r io.Reader) error {
	return replaceAgent(&h.Agent, r, rl.LoadDiscreteAgentState, discreteParts)
}

// SaveAgentState implements AgentStateHarness.
func (h *LBHarness) SaveAgentState(w io.Writer) error { return h.Agent.SaveState(w) }

// LoadAgentState implements AgentStateHarness.
func (h *LBHarness) LoadAgentState(r io.Reader) error {
	return replaceAgent(&h.Agent, r, rl.LoadDiscreteAgentState, discreteParts)
}

// SaveAgentState implements AgentStateHarness.
func (h *CCHarness) SaveAgentState(w io.Writer) error { return h.Agent.SaveState(w) }

// LoadAgentState implements AgentStateHarness.
func (h *CCHarness) LoadAgentState(r io.Reader) error {
	return replaceAgent(&h.Agent, r, rl.LoadGaussianAgentState, gaussianParts)
}
