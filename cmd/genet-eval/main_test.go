package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
)

// writeModel saves a freshly initialized policy for uc, as genet-train
// would after zero iterations.
func writeModel(t *testing.T, uc *core.UseCase) string {
	t.Helper()
	h, err := uc.NewHarness(env.RL1, "", 0, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(h, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	for _, uc := range core.UseCases {
		t.Run(uc.Name, func(t *testing.T) {
			path := writeModel(t, uc)
			args := []string{"-usecase", strings.ToUpper(uc.Name), "-model", path, "-n", "3"}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) < 3 || !strings.HasPrefix(lines[0], "policy") {
				t.Fatalf("unexpected table:\n%s", out.String())
			}
			var names []string
			for _, l := range lines[1:] {
				names = append(names, strings.Fields(l)[0])
			}
			// Model first, then the baselines in alphabetical order.
			if names[0] != "model" || !sort.StringsAreSorted(names[1:]) {
				t.Fatalf("row order %v, want model then alphabetical", names)
			}
			// Same seed, same table, byte for byte.
			var again bytes.Buffer
			if err := run(args, &again); err != nil {
				t.Fatal(err)
			}
			if again.String() != out.String() {
				t.Fatalf("reruns differ:\n%s\nvs\n%s", out.String(), again.String())
			}

			err := run([]string{"-usecase", uc.Name, "-model", path, "-traces", "fcc", "-n", "3"}, &bytes.Buffer{})
			if uc.TraceDriven && err != nil {
				t.Fatalf("-traces: %v", err)
			}
			if !uc.TraceDriven && err == nil {
				t.Fatal("-traces accepted for a use case without trace-driven environments")
			}
		})
	}
}
