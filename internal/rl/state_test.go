package rl

import (
	"bytes"
	"fmt"
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

// --- legacy model-format compatibility ---

// writeLegacyDiscrete reproduces the pre-versioned Save format: two raw
// consecutive network gob streams.
func writeLegacyDiscrete(t *testing.T, a *DiscreteAgent, w *bytes.Buffer) {
	t.Helper()
	if err := a.policy.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := a.value.Save(w); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyGaussian reproduces the historical mixed encoding: raw network
// gobs followed by text-formatted log-std floats.
func writeLegacyGaussian(t *testing.T, a *GaussianAgent, w *bytes.Buffer) {
	t.Helper()
	if err := a.policy.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := a.value.Save(w); err != nil {
		t.Fatal(err)
	}
	for _, ls := range a.logStd {
		fmt.Fprintf(w, "%v\n", ls)
	}
}

func TestDiscreteLoadReadsLegacyFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	cfg := DefaultDiscreteConfig(4, 3)
	agent, err := NewDiscreteAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeLegacyDiscrete(t, agent, &buf)
	back, err := LoadDiscreteAgent(cfg, &buf)
	if err != nil {
		t.Fatalf("legacy format rejected: %v", err)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4}
	a, b := agent.Probs(obs), back.Probs(obs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("legacy-loaded agent differs")
		}
	}
}

func TestGaussianLoadReadsLegacyFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cfg := DefaultGaussianConfig(2, 1)
	agent, err := NewGaussianAgent(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	agent.logStd[0] = -0.73
	var buf bytes.Buffer
	writeLegacyGaussian(t, agent, &buf)
	back, err := LoadGaussianAgent(cfg, &buf)
	if err != nil {
		t.Fatalf("legacy format rejected: %v", err)
	}
	obs := []float64{0.5, -0.5}
	if agent.Mean(obs)[0] != back.Mean(obs)[0] {
		t.Fatal("legacy-loaded policy differs")
	}
	if back.logStd[0] != -0.73 {
		t.Fatalf("legacy log-std = %v, want -0.73", back.logStd[0])
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
// silently or panic. Both the versioned-gob path and the legacy fallback
// path it can fall through to are covered by scanning every prefix.
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
