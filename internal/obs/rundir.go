package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/metrics"
)

// Standard file names inside a run directory. Every instrumented training
// run lays its artifacts out the same way so genet-inspect, the CI obs job,
// and humans never have to guess paths.
const (
	ManifestFile   = "manifest.json"
	EventsFile     = "events.jsonl"
	SpansFile      = "spans.trace.json"
	CheckpointFile = "checkpoint.ckpt"
	ModelFile      = "model.bin"
	// AccessLogFile is the serving access log (one JSONL line per request);
	// genet-serve -rundir writes it, genet-inspect -serve reads it.
	AccessLogFile = "access.jsonl"
)

// Manifest outcome values. Producers write OutcomeRunning when a run
// starts and replace it at exit; a manifest still reading "running" on disk
// therefore means the producing process died without reaching its exit path
// — which is exactly how fleet's resume scan classifies killed cells.
const (
	OutcomeRunning     = "running"
	OutcomeCompleted   = "completed"
	OutcomeInterrupted = "interrupted"
	OutcomeFailed      = "failed"
)

// Manifest records how a run was produced — enough to re-invoke it and to
// let genet-inspect label a diff between two runs.
type Manifest struct {
	Tool string `json:"tool"`
	// Cell is the fleet cell identity when this run directory is one cell
	// of a sweep (empty for standalone runs).
	Cell     string `json:"cell,omitempty"`
	UseCase  string `json:"usecase"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"`
	// Flags holds every flag explicitly set on the command line.
	Flags map[string]string `json:"flags,omitempty"`
	// Kernel is the NN kernel implementation selected at runtime.
	Kernel string `json:"kernel,omitempty"`
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version,omitempty"`
	// CheckpointVersion is the trainer-state schema the checkpoint file
	// (if any) was written with.
	CheckpointVersion int    `json:"checkpoint_version,omitempty"`
	StartedAt         string `json:"started_at,omitempty"`  // RFC3339
	FinishedAt        string `json:"finished_at,omitempty"` // RFC3339
	// Outcome is one of the Outcome* constants ("running" until the
	// producing process reaches its exit path).
	Outcome string `json:"outcome,omitempty"`
}

// CreateRunDir makes path (and parents). It refuses to reuse a directory
// that already holds a manifest, so two runs never interleave artifacts.
func CreateRunDir(path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(path, ManifestFile)); err == nil {
		return fmt.Errorf("run dir %s already contains %s; refusing to overwrite a finished run", path, ManifestFile)
	}
	return nil
}

// WriteManifest atomically writes the manifest into dir (temp file + fsync +
// rename), so a manifest on disk is always complete JSON.
func WriteManifest(dir string, m Manifest) error {
	return ckpt.AtomicWriteFile(filepath.Join(dir, ManifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// ReadManifest loads dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", ManifestFile, err)
	}
	return m, nil
}

// CheckComplete verifies dir is a well-formed run directory: the manifest,
// event stream, and span trace all exist and parse. The checkpoint and model
// files are optional (not every strategy or invocation produces them). It is
// the assertion behind the CI obs job and genet-inspect's input validation.
func CheckComplete(dir string) error {
	if _, err := ReadManifest(dir); err != nil {
		return fmt.Errorf("run dir %s: manifest: %w", dir, err)
	}
	f, err := os.Open(filepath.Join(dir, EventsFile))
	if err != nil {
		return fmt.Errorf("run dir %s: events: %w", dir, err)
	}
	_, rerr := metrics.ReadEvents(f)
	f.Close()
	if rerr != nil {
		return fmt.Errorf("run dir %s: %s: %w", dir, EventsFile, rerr)
	}
	if _, err := ReadTraceFile(filepath.Join(dir, SpansFile)); err != nil {
		return fmt.Errorf("run dir %s: %s: %w", dir, SpansFile, err)
	}
	return nil
}
