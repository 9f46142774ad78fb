package rl

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func discreteStateBytes(t *testing.T, a *DiscreteAgent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gaussianStateBytes(t *testing.T, a *GaussianAgent) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiscreteStateRoundTripBitIdentical is the core lossless-serialization
// property: train, snapshot with SaveState, restore, then continue both the
// original and the restored agent with identical rng streams. Every
// subsequent update must be bit-identical — compared via the full serialized
// state, which covers weights, biases, and all Adam moments and counters.
func TestDiscreteStateRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	trainRng := rand.New(rand.NewSource(41))
	for i := 0; i < 5; i++ {
		agent.TrainIterationVec(banditVec(4), 64, trainRng)
	}

	snap := discreteStateBytes(t, agent)
	restored, err := LoadDiscreteAgentState(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := discreteStateBytes(t, restored); !bytes.Equal(got, snap) {
		t.Fatal("restored state re-serializes differently")
	}

	contRng1 := rand.New(rand.NewSource(42))
	contRng2 := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		agent.TrainIterationVec(banditVec(4), 64, contRng1)
		restored.TrainIterationVec(banditVec(4), 64, contRng2)
		a, b := discreteStateBytes(t, agent), discreteStateBytes(t, restored)
		if !bytes.Equal(a, b) {
			t.Fatalf("iteration %d after restore diverged from uninterrupted run", i)
		}
	}
}

// TestGaussianStateRoundTripBitIdentical is the same property for the
// continuous-control agent, whose state additionally includes the log-std
// vector and its dedicated Adam optimizer — the part the legacy Save
// dropped entirely.
func TestGaussianStateRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	agent, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	trainRng := rand.New(rand.NewSource(44))
	for i := 0; i < 4; i++ {
		agent.TrainIterationVec(trackerVec(4), 64, trainRng)
	}

	snap := gaussianStateBytes(t, agent)
	restored, err := LoadGaussianAgentState(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := gaussianStateBytes(t, restored); !bytes.Equal(got, snap) {
		t.Fatal("restored state re-serializes differently")
	}

	contRng1 := rand.New(rand.NewSource(45))
	contRng2 := rand.New(rand.NewSource(45))
	for i := 0; i < 4; i++ {
		agent.TrainIterationVec(trackerVec(4), 64, contRng1)
		restored.TrainIterationVec(trackerVec(4), 64, contRng2)
		a, b := gaussianStateBytes(t, agent), gaussianStateBytes(t, restored)
		if !bytes.Equal(a, b) {
			t.Fatalf("iteration %d after restore diverged from uninterrupted run", i)
		}
	}
}

// TestLossySaveDivergesAfterTraining documents why SaveState exists: a model
// stream (Save/Load) carries no optimizer state, so a round-trip
// mid-training does NOT reproduce the uninterrupted run.
func TestLossySaveDivergesAfterTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cfg := DefaultDiscreteConfig(3, 3)
	agent, err := NewDiscreteAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainRng := rand.New(rand.NewSource(47))
	for i := 0; i < 5; i++ {
		agent.TrainIterationVec(banditVec(2), 64, trainRng)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lossy, err := LoadDiscreteAgent(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	contRng1 := rand.New(rand.NewSource(48))
	contRng2 := rand.New(rand.NewSource(48))
	agent.TrainIterationVec(banditVec(2), 64, contRng1)
	lossy.TrainIterationVec(banditVec(2), 64, contRng2)
	if bytes.Equal(discreteStateBytes(t, agent), discreteStateBytes(t, lossy)) {
		t.Fatal("lossy round-trip unexpectedly reproduced the uninterrupted run; Save is no longer lossy and the model-stream docs are stale")
	}
}

func TestLoadRejectsGarbageStream(t *testing.T) {
	if _, err := LoadDiscreteAgent(DefaultDiscreteConfig(3, 3), strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted as discrete model")
	}
	if _, err := LoadGaussianAgent(DefaultGaussianConfig(1, 1), strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage accepted as gaussian model")
	}
}

// --- config validation ---

func TestDiscreteLoadRejectsHiddenMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cfg := DefaultDiscreteConfig(4, 3)
	agent, err := NewDiscreteAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Same in/out widths, different hidden stack: the historical check
	// (InSize/OutSize only) let this through to a shape panic later.
	other := cfg
	other.Hidden = []int{7, 7, 7}
	if _, err := LoadDiscreteAgent(other, &buf); err == nil {
		t.Fatal("hidden-layer mismatch accepted")
	} else if !strings.Contains(err.Error(), "hidden") {
		t.Fatalf("error %q does not describe the hidden-layer mismatch", err)
	}
}

func TestGaussianLoadRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := DefaultGaussianConfig(2, 2)
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := agent.Save(&saved); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(c *GaussianConfig)
	}{
		{"obs", func(c *GaussianConfig) { c.ObsSize = 3 }},
		{"action-dim", func(c *GaussianConfig) { c.ActionDim = 1 }},
		{"hidden", func(c *GaussianConfig) { c.Hidden = []int{5} }},
	}
	for _, tc := range cases {
		other := cfg
		tc.mutate(&other)
		if _, err := LoadGaussianAgent(other, bytes.NewReader(saved.Bytes())); err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
	}
}

func TestStateLoadRejectsModelStream(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	dAgent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	var dBuf bytes.Buffer
	if err := dAgent.Save(&dBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDiscreteAgentState(&dBuf); err == nil {
		t.Fatal("model-only stream accepted as full state")
	} else if !strings.Contains(err.Error(), "optimizer") {
		t.Fatalf("error %q does not explain the missing optimizer state", err)
	}

	gAgent, err := NewGaussianAgent(DefaultGaussianConfig(1, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	var gBuf bytes.Buffer
	if err := gAgent.Save(&gBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGaussianAgentState(&gBuf); err == nil {
		t.Fatal("model-only stream accepted as full state")
	}
}

func TestStateLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadDiscreteAgentState(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted as discrete state")
	}
	if _, err := LoadGaussianAgentState(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted as gaussian state")
	}
}

// TestStateRoundTripFreshAgents covers the T=0 corner: agents that have
// never taken an update serialize with nil Adam moments, which must restore
// and then train identically.
func TestStateRoundTripFreshAgents(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	agent, err := NewDiscreteAgent(DefaultDiscreteConfig(3, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadDiscreteAgentState(bytes.NewReader(discreteStateBytes(t, agent)))
	if err != nil {
		t.Fatal(err)
	}
	r1 := rand.New(rand.NewSource(56))
	r2 := rand.New(rand.NewSource(56))
	agent.TrainIterationVec(banditVec(2), 32, r1)
	restored.TrainIterationVec(banditVec(2), 32, r2)
	if !bytes.Equal(discreteStateBytes(t, agent), discreteStateBytes(t, restored)) {
		t.Fatal("fresh-agent restore diverged on first update")
	}
}

// TestTornModelStreamRejected is the regression test for the non-atomic
// model.bin writes fixed in genet-train and fleet: a model file truncated at
// *any* byte boundary — what a watcher could have read mid-write before the
// writers adopted temp+rename — must fail to load with an error, never load
// silently or panic. Scanning every prefix cuts the container header, the
// section table and the policy payload at each possible point.
func TestTornModelStreamRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	dcfg := DiscreteConfig{
		ObsSize: 3, NumActions: 3, Hidden: []int{4},
		LR: 1e-3, Gamma: 0.99, Lambda: 0.95, Entropy: 0.01, ValueCoef: 0.5,
	}
	dAgent, err := NewDiscreteAgent(dcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := dAgent.Save(&dbuf); err != nil {
		t.Fatal(err)
	}
	full := dbuf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := LoadDiscreteAgent(dcfg, bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("discrete model truncated at byte %d/%d loaded without error", n, len(full))
		}
	}
	if _, err := LoadDiscreteAgent(dcfg, bytes.NewReader(full)); err != nil {
		t.Fatalf("complete discrete model rejected: %v", err)
	}

	gcfg := GaussianConfig{
		ObsSize: 3, ActionDim: 1, Hidden: []int{4},
		LR: 1e-3, Gamma: 0.99, Lambda: 0.95, Entropy: 0.01,
		ClipEps: 0.2, Epochs: 2, InitStd: 0.6, MinStd: 0.05,
	}
	gAgent, err := NewGaussianAgent(gcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var gbuf bytes.Buffer
	if err := gAgent.Save(&gbuf); err != nil {
		t.Fatal(err)
	}
	full = gbuf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := LoadGaussianAgent(gcfg, bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("gaussian model truncated at byte %d/%d loaded without error", n, len(full))
		}
	}
	if _, err := LoadGaussianAgent(gcfg, bytes.NewReader(full)); err != nil {
		t.Fatalf("complete gaussian model rejected: %v", err)
	}
}

// modelBytes saves an agent's model stream.
func modelBytes(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestModelBitFlipRejected flips one bit at evenly spaced offsets across a
// model stream. The container's section CRC covers every payload byte and
// the header and table are checked field by field, so every flip must fail
// the load: a corrupt model.bin never reaches the serving data plane.
func TestModelBitFlipRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dcfg := DefaultDiscreteConfig(4, 3)
	dAgent, err := NewDiscreteAgent(dcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := DefaultGaussianConfig(3, 1)
	gAgent, err := NewGaussianAgent(gcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		load func(io.Reader) error
	}{
		{"discrete", modelBytes(t, dAgent.Save), func(r io.Reader) error {
			_, err := LoadDiscreteAgent(dcfg, r)
			return err
		}},
		{"gaussian", modelBytes(t, gAgent.Save), func(r io.Reader) error {
			_, err := LoadGaussianAgent(gcfg, r)
			return err
		}},
	}
	const flips = 40
	for _, tc := range cases {
		if err := tc.load(bytes.NewReader(tc.data)); err != nil {
			t.Fatalf("%s: intact model rejected: %v", tc.name, err)
		}
		for k := 0; k < flips; k++ {
			off := k * (len(tc.data) - 1) / (flips - 1)
			c := append([]byte(nil), tc.data...)
			c[off] ^= 1 << (k % 8)
			if err := tc.load(bytes.NewReader(c)); err == nil {
				t.Fatalf("%s: bit %d flipped at byte %d/%d loaded without error", tc.name, k%8, off, len(tc.data))
			}
		}
	}
}

// TestTruncatedModelErrorNamesTheModel pins the error a torn model.bin
// produces: it reports the truncated container, not a failed attempt at
// some other format.
func TestTruncatedModelErrorNamesTheModel(t *testing.T) {
	cfg := DefaultDiscreteConfig(4, 3)
	agent, err := NewDiscreteAgent(cfg, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	data := modelBytes(t, agent.Save)
	_, err = LoadDiscreteAgent(cfg, bytes.NewReader(data[:len(data)-10]))
	if err == nil {
		t.Fatal("truncated model accepted")
	}
	if strings.Contains(err.Error(), "legacy") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated model error %q does not report the truncation", err)
	}
}

// TestPreContainerModelRejected feeds the loaders the model stream older
// builds wrote — the bare gob model value, with no container around it —
// and requires an error that says so.
func TestPreContainerModelRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	dcfg := DefaultDiscreteConfig(4, 3)
	dAgent, err := NewDiscreteAgent(dcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := DefaultGaussianConfig(3, 1)
	gAgent, err := NewGaussianAgent(gcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var dBuf, gBuf bytes.Buffer
	if err := gob.NewEncoder(&dBuf).Encode(discreteModelWire{
		Version: modelFormatVersion, Cfg: dcfg, Policy: dAgent.policy.Wire(), Value: dAgent.value.Wire(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&gBuf).Encode(gaussianModelWire{
		Version: modelFormatVersion, Cfg: gcfg, Policy: gAgent.policy.Wire(), Value: gAgent.value.Wire(), LogStd: gAgent.logStd,
	}); err != nil {
		t.Fatal(err)
	}
	_, dErr := LoadDiscreteAgent(dcfg, &dBuf)
	_, gErr := LoadGaussianAgent(gcfg, &gBuf)
	for name, err := range map[string]error{"discrete": dErr, "gaussian": gErr} {
		if err == nil {
			t.Fatalf("%s: pre-container model stream accepted", name)
		}
		if !strings.Contains(err.Error(), "not a model container") {
			t.Fatalf("%s: error %q does not say the stream is not a model container", name, err)
		}
	}
}
