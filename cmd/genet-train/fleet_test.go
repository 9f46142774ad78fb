package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/genet-go/genet/internal/fleet"
	"github.com/genet-go/genet/internal/obs"
)

// TestRunDirMatchesFleetCell pins one definition of a training run:
// genet-train -rundir and a one-cell fleet sweep given the same flags write
// byte-identical model.bin, for a curriculum strategy and for a traditional
// one (whose equal budget counts the resolved warm-up).
func TestRunDirMatchesFleetCell(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildTrainBinary(t)
	budget := fleet.Budget{
		Rounds: 2, ItersPerRound: 1, BOSteps: 2, EnvsPerEval: 1,
		EnvsPerIter: 2, StepsPerIter: 40, Warmup: 3,
	}
	for _, mode := range []string{"genet", "rl3"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			rd := filepath.Join(dir, "run")
			cmd := exec.Command(bin,
				"-usecase", "abr", "-strategy", mode, "-seed", "7",
				"-rounds", "2", "-iters", "1", "-warmup", "3",
				"-bo-steps", "2", "-envs-per-eval", "1",
				"-envs-per-iter", "2", "-steps-per-iter", "40",
				"-rundir", rd)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("genet-train: %v\n%s", err, out)
			}

			cfg := &fleet.Config{
				Envs: []string{"abr"}, Modes: []string{mode}, Seeds: []int64{7},
				Budget: budget, EvalEnvs: 1, Resamples: 10,
			}
			out := filepath.Join(dir, "fleet")
			if _, err := fleet.Run(cfg, fleet.Options{OutDir: out, Workers: 1}); err != nil {
				t.Fatal(err)
			}

			want, err := os.ReadFile(filepath.Join(rd, obs.ModelFile))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(out, fleet.CellsDir, cfg.Cells()[0].ID, obs.ModelFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: genet-train -rundir and the fleet cell wrote different model.bin (%d vs %d bytes)", mode, len(want), len(got))
			}
		})
	}
}
