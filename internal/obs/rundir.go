package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

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

// Run is one run directory's lifecycle, shared by genet-train -rundir,
// fleet cells and genet-serve -rundir. OpenRun creates the directory,
// starts the event stream (with a run/start event) and the flight recorder,
// and writes the manifest as running; Flush makes the files valid mid-run;
// Finish closes the stream, writes the span trace and stamps the outcome,
// manifest last. A manifest thus leaves running once, for completed,
// interrupted or failed, and one still running was left by a process that
// died: the states fleet's resume scan reads. The zero Run is off.
type Run struct {
	// Metrics streams into the event file and Recorder fills the span
	// trace; each is nil when off.
	Metrics  *metrics.Registry
	Recorder *Recorder
	dir      string
	manifest Manifest
}

// RunConfig says where a run's artifacts go and what the run is. With Dir
// the event stream goes to Dir/events.jsonl, and setting Events too is an
// error: the directory would lack its stream. Without Dir only the event
// stream at Events is written; without either the run is off. Reopen
// continues in a directory an earlier attempt of the run left (a resuming
// fleet cell) instead of refusing its manifest. Metrics is the registry to stream (nil = a new
// one), and Start holds run/start event fields beyond the manifest's seed.
type RunConfig struct {
	Dir, Events string
	Reopen      bool
	Metrics     *metrics.Registry
	Manifest    Manifest
	Start       []metrics.F
}

// OpenRun starts a run's artifacts as cfg describes.
func OpenRun(cfg RunConfig) (*Run, error) {
	r := &Run{dir: cfg.Dir, manifest: cfg.Manifest}
	if cfg.Dir != "" {
		if cfg.Events != "" {
			return nil, fmt.Errorf("obs: run dir %s streams its events to %s, not %s", cfg.Dir, filepath.Join(cfg.Dir, EventsFile), cfg.Events)
		}
		var err error
		if cfg.Reopen {
			err = os.MkdirAll(cfg.Dir, 0o755)
		} else {
			err = CreateRunDir(cfg.Dir)
		}
		if err != nil {
			return nil, err
		}
		cfg.Events = filepath.Join(cfg.Dir, EventsFile)
	}
	if cfg.Events == "" {
		return r, nil
	}
	sink, err := metrics.FileSink(cfg.Events)
	if err != nil {
		return nil, err
	}
	if r.Metrics = cfg.Metrics; r.Metrics == nil {
		r.Metrics = metrics.NewRegistry()
	}
	r.Metrics.SetSink(sink)
	m := &r.manifest
	tags := map[string]string{"tool": m.Tool, "usecase": m.UseCase, "strategy": m.Strategy}
	if m.Cell != "" {
		tags["cell"] = m.Cell
	}
	r.Metrics.EmitTagged("run/start", tags, append([]metrics.F{{K: "seed", V: float64(m.Seed)}}, cfg.Start...)...)
	if r.dir == "" {
		return r, nil
	}
	r.Recorder = NewRecorder(0)
	m.GoVersion = runtime.Version()
	m.StartedAt = time.Now().UTC().Format(time.RFC3339)
	m.Outcome = OutcomeRunning
	if err := WriteManifest(r.dir, *m); err != nil {
		r.Metrics.Close()
		return nil, err
	}
	return r, nil
}

// Flush makes the files on disk valid now: buffered events reach the
// stream and the span ring is rewritten, atomically, to the trace file.
func (r *Run) Flush() error { return errors.Join(r.Metrics.Flush(), r.writeTrace()) }

// Finish closes the event stream with a summary snapshot, writes the span
// trace and stamps the manifest with outcome, one of the Outcome* constants.
func (r *Run) Finish(outcome string) error {
	r.Metrics.EmitSnapshot()
	err := errors.Join(r.Metrics.Close(), r.writeTrace())
	if r.dir == "" {
		return err
	}
	r.manifest.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	r.manifest.Outcome = outcome
	return errors.Join(err, WriteManifest(r.dir, r.manifest))
}

func (r *Run) writeTrace() error {
	if r.dir == "" {
		return nil
	}
	return r.Recorder.WriteTraceFile(filepath.Join(r.dir, SpansFile))
}

// CommandLineFlags returns the flags explicitly set on the command line, the
// Flags a CLI records in its manifest.
func CommandLineFlags() map[string]string {
	m := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
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
