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

// agentKind is what the harness needs of an rl agent type beyond the
// rlAgent methods.
type agentKind[A any] struct {
	// parts exposes an agent's config and runtime attachments.
	parts func(A) (cfg any, rt *rl.Runtime)
	// loadState reads an agent written by SaveState.
	loadState func(io.Reader) (A, error)
	// model wraps an agent as a loaded policy.
	model func(A) Agent
}

var (
	discreteKind = agentKind[*rl.DiscreteAgent]{
		parts:     func(a *rl.DiscreteAgent) (any, *rl.Runtime) { return a.Config(), &a.Runtime },
		loadState: rl.LoadDiscreteAgentState,
		model:     func(a *rl.DiscreteAgent) Agent { return Agent{Discrete: a} },
	}
	gaussianKind = agentKind[*rl.GaussianAgent]{
		parts:     func(a *rl.GaussianAgent) (any, *rl.Runtime) { return a.Config(), &a.Runtime },
		loadState: rl.LoadGaussianAgentState,
		model:     func(a *rl.GaussianAgent) Agent { return Agent{Gaussian: a} },
	}
)

// replaceAgent swaps *cur for the agent state read from r after checking
// the configs agree. The replaced agent's rl.Runtime (worker caps, metrics,
// guard, faults, flight recorder) carries over whole, so a resumed or
// rolled-back run keeps every attachment.
func replaceAgent[A any](cur *A, r io.Reader, kind agentKind[A]) error {
	loaded, err := kind.loadState(r)
	if err != nil {
		return err
	}
	cfg, rt := kind.parts(loaded)
	oldCfg, oldRT := kind.parts(*cur)
	if !reflect.DeepEqual(cfg, oldCfg) {
		return fmt.Errorf("core: checkpointed agent config %+v does not match harness config %+v", cfg, oldCfg)
	}
	*rt = *oldRT
	*cur = loaded
	return nil
}
