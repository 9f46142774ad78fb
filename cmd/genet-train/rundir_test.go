package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// tinyRunDirArgs is tinyRunArgs minus -o/-checkpoint: with -rundir those
// default into the standard artifact slots, which is what the test pins.
func tinyRunDirArgs(runDir string, rounds string) []string {
	return []string{
		"-usecase", "abr", "-strategy", "genet",
		"-rounds", rounds, "-iters", "1", "-bo-steps", "2", "-envs-per-eval", "1",
		"-envs-per-iter", "2", "-steps-per-iter", "40", "-warmup", "0",
		"-seed", "7",
		"-rundir", runDir,
	}
}

// TestRunDirArtifactsComplete pins the standard run-directory layout: one
// -rundir flag yields manifest.json, events.jsonl, spans.trace.json, a
// checkpoint, and the model, all parseable, with the manifest recording how
// the run was produced.
func TestRunDirArtifactsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	rd := filepath.Join(t.TempDir(), "run")

	cmd := exec.Command(bin, tinyRunDirArgs(rd, "1")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("genet-train failed: %v\nstderr:\n%s", err, stderr.String())
	}

	if err := obs.CheckComplete(rd); err != nil {
		t.Fatalf("run dir incomplete: %v", err)
	}
	man, err := obs.ReadManifest(rd)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "genet-train" || man.UseCase != "abr" || man.Strategy != "genet" || man.Seed != 7 {
		t.Errorf("manifest identity = %+v", man)
	}
	if man.Outcome != "completed" || man.StartedAt == "" || man.FinishedAt == "" {
		t.Errorf("manifest lifecycle = outcome %q started %q finished %q", man.Outcome, man.StartedAt, man.FinishedAt)
	}
	if man.Kernel == "" || man.GoVersion == "" || man.CheckpointVersion == 0 {
		t.Errorf("manifest provenance = %+v", man)
	}
	if man.Flags["rundir"] != rd || man.Flags["seed"] != "7" {
		t.Errorf("manifest flags = %v", man.Flags)
	}

	for _, name := range []string{obs.CheckpointFile, obs.ModelFile} {
		if _, err := os.Stat(filepath.Join(rd, name)); err != nil {
			t.Errorf("default %s not written: %v", name, err)
		}
	}

	tf, err := obs.ReadTraceFile(filepath.Join(rd, obs.SpansFile))
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range tf.TraceEvents {
		spans[e.Name] = true
	}
	for _, want := range []string{"train/round", "bo/search", "bo/query", "train/iter", "rl/rollout", "rl/update", "ckpt/write", "curriculum/promote"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (have %v)", want, spans)
		}
	}

	evf, err := os.Open(filepath.Join(rd, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := metrics.ReadEvents(evf)
	evf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[len(evs)-1].Name != "snapshot" || evs[len(evs)-1].Summary == nil {
		t.Errorf("event stream does not close with a summary snapshot (%d events)", len(evs))
	}

	// A second run into the same directory must refuse rather than
	// interleave artifacts.
	cmd = exec.Command(bin, tinyRunDirArgs(rd, "1")...)
	stderr.Reset()
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("rerun into used run dir: err = %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "refusing") {
		t.Errorf("rerun stderr does not explain refusal:\n%s", stderr.String())
	}
}

// TestRunDirRefusesMetrics: -metrics beside -rundir would send the events
// away from the run directory, which then fails CheckComplete, so the pair
// is a usage error (exit 2) naming where -rundir streams them, and no
// directory is created.
func TestRunDirRefusesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	rd := filepath.Join(t.TempDir(), "run")
	cmd := exec.Command(bin, append(tinyRunDirArgs(rd, "1"), "-metrics", filepath.Join(t.TempDir(), "ev.jsonl"))...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit code %d (err %v), want 2\nstderr:\n%s", code, err, stderr.String())
	}
	if want := filepath.Join(rd, obs.EventsFile); !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not name %s:\n%s", want, stderr.String())
	}
	if _, err := os.Stat(rd); !os.IsNotExist(err) {
		t.Errorf("refused run created %s (stat err %v)", rd, err)
	}
}

// TestInterruptLeavesValidArtifacts is satellite 2: a graceful ^C mid-run
// must still yield a complete, parseable run directory — valid events.jsonl
// and spans.trace.json, a loadable checkpoint, and a manifest recording the
// "interrupted" outcome.
func TestInterruptLeavesValidArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	rd := filepath.Join(t.TempDir(), "run")

	// Enough rounds that the run is still going when the signal lands.
	cmd := exec.Command(bin, tinyRunDirArgs(rd, "500")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	defer killer.Stop()

	// Wait for the first checkpoint (one full round done), then interrupt.
	ck := filepath.Join(rd, obs.CheckpointFile)
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no checkpoint after a minute\nstderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("interrupted run exited badly: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stopping at next safe point") {
		t.Fatalf("graceful-stop message missing:\n%s", stderr.String())
	}

	if err := obs.CheckComplete(rd); err != nil {
		t.Fatalf("interrupted run dir invalid: %v", err)
	}
	man, err := obs.ReadManifest(rd)
	if err != nil {
		t.Fatal(err)
	}
	if man.Outcome != "interrupted" {
		t.Fatalf("manifest outcome = %q, want interrupted\nstderr:\n%s", man.Outcome, stderr.String())
	}

	// The artifacts reflect the truncated run: a parseable trace with round
	// spans and an event stream that still closes with the summary snapshot.
	tf, err := obs.ReadTraceFile(filepath.Join(rd, obs.SpansFile))
	if err != nil {
		t.Fatal(err)
	}
	sawRound := false
	for _, e := range tf.TraceEvents {
		if e.Name == "train/round" {
			sawRound = true
			break
		}
	}
	if !sawRound {
		t.Error("interrupted trace holds no train/round span")
	}

	// And the run resumes from the checkpoint it left behind.
	// -rounds 3 keeps the resumed leg short: it either finishes the few
	// missing rounds or returns immediately if the interrupt landed later.
	cmd = exec.Command(bin,
		"-usecase", "abr", "-strategy", "genet",
		"-rounds", "3", "-iters", "1", "-bo-steps", "2", "-envs-per-eval", "1",
		"-envs-per-iter", "2", "-steps-per-iter", "40", "-warmup", "0",
		"-seed", "7",
		"-resume", ck, "-o", filepath.Join(t.TempDir(), "abr.model"))
	stderr.Reset()
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resume from interrupted checkpoint failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resuming from") {
		t.Errorf("resume not reported:\n%s", stderr.String())
	}
}
