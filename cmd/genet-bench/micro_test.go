package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/microbench"
)

// TestRunMicroKeepsOldBaseline checks that a run which cannot finish leaves
// the file at its destination as it was: an unwritable destination fails
// before any row runs, and a failing row fails the run without writing.
func TestRunMicroKeepsOldBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	ok := microbench.Row{Name: "Ok", Iters: 1, Bench: func(b *testing.B) { ran = true }}
	fails := microbench.Row{Name: "Fails", Iters: 1, Bench: func(b *testing.B) { b.Fatal("boom") }}

	if err := runMicro(filepath.Join(dir, "absent", "BENCH_2.json"), 3, []microbench.Row{ok}, nil); err == nil || ran {
		t.Fatalf("unwritable destination: err %v, row ran %v", err, ran)
	}
	if err := runMicro(path, 3, []microbench.Row{ok, fails}, nil); err == nil || !strings.Contains(err.Error(), "Fails") {
		t.Fatalf("failing row: err %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "old\n" {
		t.Fatalf("baseline after a failed run = %q, %v", data, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed run left files behind: %v", entries)
	}

	if err := runMicro(path, 3, []microbench.Row{ok}, nil); err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(path)
	if err != nil || len(b.Results) != 1 || b.Results[0].Name != "Ok" || b.Results[0].Iterations != 1 || b.Reps != 3 {
		t.Fatalf("written baseline = %+v, %v", b, err)
	}
}
