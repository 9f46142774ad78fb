package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/metrics"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{
		Tool:              "genet-train",
		UseCase:           "abr",
		Strategy:          "genet",
		Seed:              7,
		Rounds:            3,
		Flags:             map[string]string{"seed": "7", "rounds": "3"},
		Kernel:            "avx2-fma",
		GoVersion:         "go1.24.0",
		CheckpointVersion: 2,
		StartedAt:         "2026-08-05T10:00:00Z",
		Outcome:           "running",
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != m.Tool || got.Seed != m.Seed || got.Flags["rounds"] != "3" ||
		got.Kernel != m.Kernel || got.CheckpointVersion != 2 || got.Outcome != "running" {
		t.Fatalf("round trip = %+v", got)
	}

	// Rewrite with the final outcome — the completed-run update path.
	m.FinishedAt = "2026-08-05T10:05:00Z"
	m.Outcome = "completed"
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err = ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != "completed" || got.FinishedAt == "" {
		t.Fatalf("rewrite = %+v", got)
	}
	if residue, _ := filepath.Glob(filepath.Join(dir, ManifestFile+".tmp*")); len(residue) != 0 {
		t.Errorf("manifest temp file left behind: %v", residue)
	}
}

// TestCreateRunDirRefusesReuse: a directory that already holds a manifest
// belongs to a finished run and must not be overwritten.
func TestCreateRunDirRefusesReuse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs", "a")
	if err := CreateRunDir(dir); err != nil {
		t.Fatal(err)
	}
	// An empty pre-existing directory is fine (idempotent).
	if err := CreateRunDir(dir); err != nil {
		t.Fatalf("reuse of empty dir: %v", err)
	}
	if err := WriteManifest(dir, Manifest{Tool: "genet-train"}); err != nil {
		t.Fatal(err)
	}
	err := CreateRunDir(dir)
	if err == nil || !strings.Contains(err.Error(), ManifestFile) {
		t.Fatalf("reuse with manifest: err = %v", err)
	}
}

func populateRunDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{Tool: "genet-train", UseCase: "abr"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	sink := metrics.NewJSONLSink(f)
	sink.Emit(metrics.Event{Name: "train/iter"})
	if err := sink.Close(); err != nil { // also closes f
		t.Fatal(err)
	}
	r := NewRecorder(8)
	r.Start("train/round").End()
	if err := r.WriteTraceFile(filepath.Join(dir, SpansFile)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheckComplete(t *testing.T) {
	dir := populateRunDir(t)
	if err := CheckComplete(dir); err != nil {
		t.Fatalf("complete dir rejected: %v", err)
	}

	// Each required artifact missing or corrupt must fail with a message
	// naming the artifact.
	cases := []struct {
		name    string
		corrupt func(dir string)
		wantSub string
	}{
		{"missing manifest", func(d string) { os.Remove(filepath.Join(d, ManifestFile)) }, "manifest"},
		{"corrupt manifest", func(d string) {
			os.WriteFile(filepath.Join(d, ManifestFile), []byte("{nope"), 0o644)
		}, "manifest"},
		{"missing events", func(d string) { os.Remove(filepath.Join(d, EventsFile)) }, "events"},
		{"corrupt events", func(d string) {
			os.WriteFile(filepath.Join(d, EventsFile), []byte("not json\n"), 0o644)
		}, EventsFile},
		{"missing trace", func(d string) { os.Remove(filepath.Join(d, SpansFile)) }, SpansFile},
		{"corrupt trace", func(d string) {
			os.WriteFile(filepath.Join(d, SpansFile), []byte("[[["), 0o644)
		}, SpansFile},
	}
	for _, tc := range cases {
		d := populateRunDir(t)
		tc.corrupt(d)
		err := CheckComplete(d)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantSub)
		}
	}
}
