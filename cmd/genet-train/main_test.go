package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTrainBinary compiles genet-train into a temp dir so tests exercise
// the real CLI surface (flags, signal handling, startup sweep).
func buildTrainBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "genet-train")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build genet-train: %v\n%s", err, out)
	}
	return bin
}

// tinyRunArgs is the smallest configuration that still goes through the
// full curriculum path: one round, one iteration, two parallel envs.
func tinyRunArgs(ckPath, outPath string) []string {
	return []string{
		"-usecase", "abr", "-strategy", "genet",
		"-rounds", "1", "-iters", "1", "-bo-steps", "2", "-envs-per-eval", "1",
		"-envs-per-iter", "2", "-steps-per-iter", "40", "-warmup", "0",
		"-seed", "7",
		"-checkpoint", ckPath, "-o", outPath,
	}
}

// TestStartupSweepsStaleCheckpointTemps pins the abort-path fix: temp files
// stranded next to the checkpoint by a hard abort (second SIGINT mid-write)
// are removed at the next startup, and a completed run leaves no *.tmp-*
// residue of its own — only the final checkpoint and model.
func TestStartupSweepsStaleCheckpointTemps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "run.ckpt")

	// Strand debris exactly as an aborted ckpt.WriteFile would.
	for _, name := range []string{"run.ckpt.tmp-123456", "run.ckpt.tmp-777"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(bin, tinyRunArgs(ck, filepath.Join(dir, "abr.model"))...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("genet-train failed: %v\nstderr:\n%s", err, stderr.String())
	}

	if !strings.Contains(stderr.String(), "removed 2 stale checkpoint temp file(s)") {
		t.Fatalf("startup sweep not reported in stderr:\n%s", stderr.String())
	}
	residue, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(residue) != 0 {
		t.Fatalf("temp residue left behind: %v", residue)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// TestCheckpointFlagLeavesModelBytesUnchanged pins the gob type-id
// pinning in internal/rl: a run with -checkpoint gob-encodes checkpoint
// sections before it saves the model, and the model must still be
// byte-identical to the one a run without -checkpoint writes.
func TestCheckpointFlagLeavesModelBytesUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	for _, uc := range []string{"abr", "cc"} {
		dir := t.TempDir()
		withCk, plain := filepath.Join(dir, "ck.model"), filepath.Join(dir, "plain.model")
		args := tinyRunArgs(filepath.Join(dir, "run.ckpt"), withCk)
		args[1] = uc
		// Drop "-checkpoint <path> -o <path>" for the plain run.
		plainArgs := append(append([]string(nil), args[:len(args)-4]...), "-o", plain)
		for _, a := range [][]string{args, plainArgs} {
			if out, err := exec.Command(bin, a...).CombinedOutput(); err != nil {
				t.Fatalf("%s: genet-train %v: %v\n%s", uc, a, err, out)
			}
		}
		a, err := os.ReadFile(withCk)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: model.bin differs with and without -checkpoint (%d vs %d bytes)", uc, len(a), len(b))
		}
	}
}

// TestInjectGuardSmoke runs the chaos CLI path end to end: counter-based
// fault sites armed, guard on, and the run must still complete, print the
// guard and fault summaries, and save a model.
func TestInjectGuardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "abr.model")

	args := append(tinyRunArgs(filepath.Join(dir, "run.ckpt"), out),
		"-guard", "-rollback-after", "2", "-quarantine-after", "2",
		"-inject", "grad-nan:2,bo-query:4,ckpt-write:8")
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("chaos run failed: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{"chaos: injecting faults", "guard: ", "faults: "} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("model not written: %v", err)
	}
}
