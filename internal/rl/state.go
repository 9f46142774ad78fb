package rl

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/nn"
)

// Serialization formats.
//
// Two stream kinds exist per agent, both carrying one gob value with a
// leading Version field:
//
//   - model streams (Save/Load*Agent): networks and logStd only — the
//     model.bin format genet-train and fleet write and serve and
//     genet-eval read. The value sits in the "policy" section of a ckpt
//     container, so the section CRC covers every byte of a model. No
//     optimizer state: a model is a policy to deploy or evaluate, not a
//     training run to continue.
//   - state streams (SaveState/Load*AgentState): the complete training
//     state — config, networks, logStd, and every Adam moment and step
//     counter — such that LoadState followed by Update is bit-identical to
//     never having serialized at all. Checkpoint/resume uses these.
const (
	modelFormatVersion = 1
	stateFormatVersion = 1
	// modelSection names the container section that holds a model stream.
	modelSection = "policy"
)

// init pins gob's process-global type ids for every wire type, in a fixed
// order. Gob assigns those ids lazily at first encode, so without this a
// model saved after some unrelated gob activity (e.g. a checkpoint write)
// would carry different type-descriptor bytes than one saved first — same
// decoded values, different file hash — breaking the bit-identical-output
// contract between otherwise identical runs.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{
		discreteModelWire{}, gaussianModelWire{},
		discreteStateWire{}, gaussianStateWire{},
	} {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("rl: pin gob wire types: %v", err))
		}
	}
}

type discreteModelWire struct {
	Version int
	Cfg     DiscreteConfig
	Policy  nn.MLPWire
	Value   nn.MLPWire
}

type gaussianModelWire struct {
	Version int
	Cfg     GaussianConfig
	Policy  nn.MLPWire
	Value   nn.MLPWire
	LogStd  []float64
}

type discreteStateWire struct {
	Version int
	Cfg     DiscreteConfig
	Policy  nn.MLPWire
	Value   nn.MLPWire
	POpt    nn.AdamWire
	VOpt    nn.AdamWire
}

// adamVecWire serializes the log-std Adam state (adamVec), which model
// streams leave out: a checkpoint without it would restart the log-std
// moments and step counter from zero and the resumed run would diverge.
type adamVecWire struct {
	LR, B1, B2, Eps float64
	M, V            []float64
	T               int
}

type gaussianStateWire struct {
	Version int
	Cfg     GaussianConfig
	Policy  nn.MLPWire
	Value   nn.MLPWire
	LogStd  []float64
	POpt    nn.AdamWire
	VOpt    nn.AdamWire
	SOpt    adamVecWire
}

// validateNets checks loaded networks against every dimension an agent's
// config implies — obs width, output width, and each hidden layer — so a
// config mismatch fails at load time with a descriptive error instead of a
// shape panic (or silent garbage) deep inside the first forward pass.
func validateNets(obsSize int, hidden []int, out int, policy, value *nn.MLP) error {
	wantP, wantV := netSizes(obsSize, hidden, out)
	if got := policy.Sizes(); !slices.Equal(got, wantP) {
		return fmt.Errorf("rl: loaded policy layers %v do not match config (obs=%d hidden=%v actions=%d wants %v)",
			got, obsSize, hidden, out, wantP)
	}
	if got := value.Sizes(); !slices.Equal(got, wantV) {
		return fmt.Errorf("rl: loaded value net layers %v do not match config (obs=%d hidden=%v wants %v)",
			got, obsSize, hidden, wantV)
	}
	return nil
}

// validateLogStd checks a loaded log-std vector's length against cfg.
func validateLogStd(cfg GaussianConfig, logStd []float64) error {
	if len(logStd) != cfg.ActionDim {
		return fmt.Errorf("rl: loaded log-std has %d dims, config wants %d", len(logStd), cfg.ActionDim)
	}
	return nil
}

// saveModel writes wire as the policy section of a model container.
func saveModel(w io.Writer, wire any) error {
	cw := ckpt.NewWriter()
	if err := cw.AddGob(modelSection, wire); err != nil {
		return err
	}
	_, err := cw.WriteTo(w)
	return err
}

// readModel reads a model container's policy section into wire, whose
// Version, Policy and Value fields version, pw and vw address, and returns
// the restored networks, validated against the config dimensions.
func readModel(r io.Reader, obsSize int, hidden []int, out int, wire any, version *int, pw, vw *nn.MLPWire) (policy, value *nn.MLP, err error) {
	f, err := ckpt.Read(r)
	if errors.Is(err, ckpt.ErrNotContainer) {
		return nil, nil, fmt.Errorf("rl: load model: stream is not a model container (a model.bin from an older build? re-run genet-train): %w", err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("rl: load model: %w", err)
	}
	if err := f.Gob(modelSection, wire); err != nil {
		return nil, nil, fmt.Errorf("rl: load model: %w", err)
	}
	if *version < 1 || *version > modelFormatVersion {
		return nil, nil, fmt.Errorf("rl: unsupported model version %d (this build reads <= %d)", *version, modelFormatVersion)
	}
	if policy, err = nn.MLPFromWire(*pw); err != nil {
		return nil, nil, fmt.Errorf("rl: load policy: %w", err)
	}
	if value, err = nn.MLPFromWire(*vw); err != nil {
		return nil, nil, fmt.Errorf("rl: load value net: %w", err)
	}
	return policy, value, validateNets(obsSize, hidden, out, policy, value)
}

var (
	errStateNoConfig = errors.New("rl: agent state stream carries no config (was it written with Save instead of SaveState?)")
	// A model container, or a bare model value, which gob-decodes into a
	// state wire shape with zeroed optimizers; accepting either would
	// silently train with LR 0 after resume.
	errStateModelOnly = errors.New("rl: stream lacks optimizer state (written with Save instead of SaveState?)")
)

// decodeState decodes one state stream into wire, whose Version field
// version addresses, and checks the version is one this build reads. It
// may read past the end of the state value.
func decodeState(r io.Reader, wire any, version *int) error {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(ckpt.Magic)); string(head) == ckpt.Magic {
		return errStateModelOnly
	}
	if err := gob.NewDecoder(br).Decode(wire); err != nil {
		return fmt.Errorf("rl: load state: %w", err)
	}
	if *version < 1 || *version > stateFormatVersion {
		return fmt.Errorf("rl: unsupported agent state version %d (this build reads <= %d)", *version, stateFormatVersion)
	}
	return nil
}

// restoreNets rebuilds a state stream's networks, validates them against
// the config dimensions, and restores their Adam optimizers.
func restoreNets(obsSize int, hidden []int, out int, pw, vw nn.MLPWire, po, vo nn.AdamWire) (policy, value *nn.MLP, pOpt, vOpt *nn.Adam, err error) {
	if policy, err = nn.MLPFromWire(pw); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("rl: load state policy: %w", err)
	}
	if value, err = nn.MLPFromWire(vw); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("rl: load state value net: %w", err)
	}
	if err = validateNets(obsSize, hidden, out, policy, value); err != nil {
		return nil, nil, nil, nil, err
	}
	if pOpt, err = nn.AdamFromWire(po, policy); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("rl: load state policy optimizer: %w", err)
	}
	if vOpt, err = nn.AdamFromWire(vo, value); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("rl: load state value optimizer: %w", err)
	}
	return policy, value, pOpt, vOpt, nil
}

// --- DiscreteAgent ---

// Save writes the agent's model stream: config and networks in a model
// container, without optimizer state (use SaveState to checkpoint
// training).
func (a *DiscreteAgent) Save(w io.Writer) error {
	return saveModel(w, discreteModelWire{
		Version: modelFormatVersion,
		Cfg:     a.cfg,
		Policy:  a.policy.Wire(),
		Value:   a.value.Wire(),
	})
}

// LoadDiscreteAgent restores an agent saved with Save, with fresh optimizer
// state. The networks are validated against cfg (observation width, action
// count, hidden sizes); a mismatch is a descriptive error, never a deferred
// shape panic.
func LoadDiscreteAgent(cfg DiscreteConfig, r io.Reader) (*DiscreteAgent, error) {
	var wire discreteModelWire
	policy, value, err := readModel(r, cfg.ObsSize, cfg.Hidden, cfg.NumActions, &wire, &wire.Version, &wire.Policy, &wire.Value)
	if err != nil {
		return nil, err
	}
	return newDiscrete(cfg, policy, value), nil
}

// SaveState serializes the agent's complete training state: config,
// networks, and both Adam optimizers including moments and step counters.
// LoadDiscreteAgentState followed by Update is bit-identical to an agent
// that was never serialized.
func (a *DiscreteAgent) SaveState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(discreteStateWire{
		Version: stateFormatVersion,
		Cfg:     a.cfg,
		Policy:  a.policy.Wire(),
		Value:   a.value.Wire(),
		POpt:    a.pOpt.Wire(),
		VOpt:    a.vOpt.Wire(),
	})
}

// LoadDiscreteAgentState restores an agent saved with SaveState. The
// configuration is part of the stream; the Runtime attachments are left at
// their zero values for the caller to set.
func LoadDiscreteAgentState(r io.Reader) (*DiscreteAgent, error) {
	var wire discreteStateWire
	if err := decodeState(r, &wire, &wire.Version); err != nil {
		return nil, err
	}
	cfg := wire.Cfg
	if cfg.ObsSize <= 0 || cfg.NumActions <= 1 {
		return nil, errStateNoConfig
	}
	if wire.POpt.LR <= 0 || wire.VOpt.LR <= 0 {
		return nil, errStateModelOnly
	}
	policy, value, pOpt, vOpt, err := restoreNets(cfg.ObsSize, cfg.Hidden, cfg.NumActions, wire.Policy, wire.Value, wire.POpt, wire.VOpt)
	if err != nil {
		return nil, err
	}
	a := newDiscrete(cfg, policy, value)
	a.pOpt, a.vOpt = pOpt, vOpt
	return a, nil
}

// --- GaussianAgent ---

// Save writes the agent's model stream: config, networks and the log-std
// vector in a model container, without optimizer state (use SaveState to
// checkpoint training).
func (a *GaussianAgent) Save(w io.Writer) error {
	return saveModel(w, gaussianModelWire{
		Version: modelFormatVersion,
		Cfg:     a.cfg,
		Policy:  a.policy.Wire(),
		Value:   a.value.Wire(),
		LogStd:  append([]float64(nil), a.logStd...),
	})
}

// LoadGaussianAgent restores an agent saved with Save, with fresh optimizer
// state, validating the networks and log-std vector against cfg.
func LoadGaussianAgent(cfg GaussianConfig, r io.Reader) (*GaussianAgent, error) {
	var wire gaussianModelWire
	policy, value, err := readModel(r, cfg.ObsSize, cfg.Hidden, cfg.ActionDim, &wire, &wire.Version, &wire.Policy, &wire.Value)
	if err != nil {
		return nil, err
	}
	if err := validateLogStd(cfg, wire.LogStd); err != nil {
		return nil, err
	}
	return newGaussian(cfg, policy, value, wire.LogStd), nil
}

// SaveState serializes the agent's complete training state: config,
// networks, log-std, and all three Adam optimizers (policy, value, and the
// log-std vector optimizer) including moments and step counters.
// LoadGaussianAgentState followed by Update is bit-identical to an agent
// that was never serialized.
func (a *GaussianAgent) SaveState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(gaussianStateWire{
		Version: stateFormatVersion,
		Cfg:     a.cfg,
		Policy:  a.policy.Wire(),
		Value:   a.value.Wire(),
		LogStd:  append([]float64(nil), a.logStd...),
		POpt:    a.pOpt.Wire(),
		VOpt:    a.vOpt.Wire(),
		SOpt:    adamVecWire(*a.sOpt),
	})
}

// LoadGaussianAgentState restores an agent saved with SaveState.
func LoadGaussianAgentState(r io.Reader) (*GaussianAgent, error) {
	var wire gaussianStateWire
	if err := decodeState(r, &wire, &wire.Version); err != nil {
		return nil, err
	}
	cfg := wire.Cfg
	if cfg.ObsSize <= 0 || cfg.ActionDim <= 0 {
		return nil, errStateNoConfig
	}
	if wire.POpt.LR <= 0 || wire.VOpt.LR <= 0 || wire.SOpt.LR <= 0 {
		return nil, errStateModelOnly
	}
	policy, value, pOpt, vOpt, err := restoreNets(cfg.ObsSize, cfg.Hidden, cfg.ActionDim, wire.Policy, wire.Value, wire.POpt, wire.VOpt)
	if err != nil {
		return nil, err
	}
	logStd := append([]float64(nil), wire.LogStd...)
	if err := validateLogStd(cfg, logStd); err != nil {
		return nil, err
	}
	if s := wire.SOpt; len(s.M) != cfg.ActionDim || len(s.V) != cfg.ActionDim {
		return nil, fmt.Errorf("rl: load state log-std optimizer: %d/%d moments, want %d", len(s.M), len(s.V), cfg.ActionDim)
	}
	sOpt := adamVec(wire.SOpt)
	a := newGaussian(cfg, policy, value, logStd)
	a.pOpt, a.vOpt, a.sOpt = pOpt, vOpt, &sOpt
	return a, nil
}
