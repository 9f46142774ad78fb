package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/obs"
)

// testConfig is the shared tiny sweep the fleet tests run: budgets are the
// smallest that still exercise warm-up, one full curriculum round with BO
// search, and a traditional run.
func testConfig(envs, modes []string, seeds []int64) *Config {
	c := &Config{
		Envs:  envs,
		Modes: modes,
		Seeds: seeds,
		Budget: Budget{
			Rounds:        1,
			ItersPerRound: 1,
			BOSteps:       1,
			EnvsPerEval:   1,
			EnvsPerIter:   2,
			StepsPerIter:  40,
			Warmup:        1,
		},
		EvalEnvs:  2,
		Resamples: 200,
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the expected error, "" = valid
	}{
		{"valid", func(c *Config) {}, ""},
		{"no-envs", func(c *Config) { c.Envs = nil }, "no envs"},
		{"no-modes", func(c *Config) { c.Modes = nil }, "no modes"},
		{"no-seeds", func(c *Config) { c.Seeds = nil }, "no seeds"},
		{"bad-env", func(c *Config) { c.Envs = []string{"vr"} }, "unknown env"},
		{"bad-mode", func(c *Config) { c.Modes = []string{"sgd"} }, "unknown mode"},
		{"dup-seed", func(c *Config) { c.Seeds = []int64{1, 1} }, "duplicate seed"},
		{"dup-env", func(c *Config) { c.Envs = []string{"abr", "ABR"} }, "duplicate env"},
		{"bad-fault", func(c *Config) { c.Faults = []string{"grad-nan:0"} }, "bad fault profile"},
		{"escaping-fault", func(c *Config) { c.Faults = []string{"grad-nan:2/../../../victim"} }, "bad fault profile"},
		{"dup-cell-id", func(c *Config) { c.Faults = []string{"grad-nan:2", " grad-nan:2"} }, "duplicate cell id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Config{Envs: []string{"abr"}, Modes: []string{"genet"}, Seeds: []int64{1}}
			tc.mut(c)
			err := c.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsUnsafeFaultProfiles: a fault profile whose cell ID would
// climb out of the sweep directory, and two profiles that collapse to one
// cell ID, are rejected before Run touches the filesystem. Run wipes a
// cell's directory before training it, so the first once deleted a sibling
// of the sweep and the second had two cells share one directory.
func TestRunRejectsUnsafeFaultProfiles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults []string
		want   string
	}{
		{"escape", []string{"grad-nan:2/../../../victim"}, "bad fault profile"},
		{"dup-id", []string{"grad-nan:2", " grad-nan:2"}, "duplicate cell id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			keep := filepath.Join(root, "victim", "keep")
			if err := os.MkdirAll(filepath.Dir(keep), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig([]string{"abr"}, []string{"rl1"}, []int64{1})
			cfg.Faults = tc.faults
			out := filepath.Join(root, "sweep")
			if _, err := Run(cfg, Options{OutDir: out}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error = %v, want substring %q", err, tc.want)
			}
			if _, err := os.Stat(keep); err != nil {
				t.Fatalf("sibling of the sweep directory was touched: %v", err)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("rejected sweep created its output directory (stat err %v)", err)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := &Config{Envs: []string{"ABR"}, Modes: []string{"Genet"}, Seeds: []int64{1}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Envs[0] != "abr" || c.Modes[0] != "genet" {
		t.Fatalf("normalization failed: %v %v", c.Envs, c.Modes)
	}
	if len(c.Faults) != 1 || c.Faults[0] != "" {
		t.Fatalf("fault default: %v", c.Faults)
	}
	if c.EvalEnvs != 4 || c.Resamples != 1000 || c.Confidence != 0.95 {
		t.Fatalf("aggregation defaults: %+v", c)
	}
	if c.Budget.Rounds == 0 || c.Budget.ItersPerRound == 0 {
		t.Fatalf("budget defaults: %+v", c.Budget)
	}
}

func TestCellExpansionDeterministic(t *testing.T) {
	c := testConfig([]string{"abr", "lb"}, []string{"genet", "rl3"}, []int64{1, 2, 3})
	cells := c.Cells()
	if len(cells) != 12 {
		t.Fatalf("want 12 cells, got %d", len(cells))
	}
	again := c.Cells()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, cells[i], again[i])
		}
		if cells[i].Index != i {
			t.Fatalf("index mismatch at %d: %+v", i, cells[i])
		}
	}
	// Expansion is env-major: the first four cells are abr.
	for i := 0; i < 6; i++ {
		if cells[i].Env != "abr" {
			t.Fatalf("cell %d should be abr: %+v", i, cells[i])
		}
	}
	if cells[0].ID != "abr.genet.s1" || cells[11].ID != "lb.rl3.s3" {
		t.Fatalf("IDs: %s ... %s", cells[0].ID, cells[11].ID)
	}
}

func TestCellIDFaultSanitized(t *testing.T) {
	id := CellID("abr", "genet", 7, "grad-nan:2,bo-query:4")
	if strings.ContainsAny(id, ":,") {
		t.Fatalf("unsafe cell id %q", id)
	}
	if id != "abr.genet.s7.fgrad-nan-2+bo-query-4" {
		t.Fatalf("id = %q", id)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := ExampleConfig()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells()[0] != c.Cells()[0] || len(got.Cells()) != len(c.Cells()) {
		t.Fatalf("round trip changed expansion")
	}
}

// TestSweepRunsToCompletion runs the smallest interesting sweep end to end
// and checks the cell artifacts, the aggregate, and idempotent re-runs
// (second Run skips every cell).
func TestSweepRunsToCompletion(t *testing.T) {
	cfg := testConfig([]string{"lb"}, []string{"genet", "rl3"}, []int64{1, 2})
	out := t.TempDir()
	res, err := Run(cfg, Options{OutDir: out, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() || res.Executed != 4 || res.Skipped != 0 {
		t.Fatalf("first run: executed=%d skipped=%d remaining=%d", res.Executed, res.Skipped, res.Remaining)
	}
	if res.Summary == nil || len(res.Summary.Cells) != 4 || len(res.Summary.Groups) != 2 {
		t.Fatalf("summary: %+v", res.Summary)
	}
	// Every cell directory holds the full standard artifact set plus the
	// result file, and passes CheckComplete.
	for _, c := range cfg.Cells() {
		dir := filepath.Join(out, CellsDir, c.ID)
		if err := obs.CheckComplete(dir); err != nil {
			t.Fatalf("cell %s: %v", c.ID, err)
		}
		for _, f := range []string{obs.ManifestFile, obs.EventsFile, obs.SpansFile, obs.ModelFile, ResultFile} {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Fatalf("cell %s: artifact %s missing or empty (%v)", c.ID, f, err)
			}
		}
		man, err := obs.ReadManifest(dir)
		if err != nil || man.Outcome != obs.OutcomeCompleted || man.Cell != c.ID {
			t.Fatalf("cell %s manifest: %+v, %v", c.ID, man, err)
		}
		if curriculumMode(c.Mode) {
			if _, err := os.Stat(filepath.Join(dir, obs.CheckpointFile)); err != nil {
				t.Fatalf("curriculum cell %s missing checkpoint: %v", c.ID, err)
			}
		}
	}
	// Group CIs are ordered and centered on their cells.
	for _, g := range res.Summary.Groups {
		if !(g.Reward.Lo <= g.Reward.Point && g.Reward.Point <= g.Reward.Hi) {
			t.Fatalf("group %s/%s reward CI not ordered: %v", g.Env, g.Mode, g.Reward)
		}
		if len(g.Seeds) != 2 {
			t.Fatalf("group %s/%s seeds: %v", g.Env, g.Mode, g.Seeds)
		}
	}

	// Second invocation: everything is loaded, nothing executes, and the
	// aggregate is byte-identical.
	res2, err := Run(cfg, Options{OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 || res2.Skipped != 4 || res2.Remaining != 0 {
		t.Fatalf("second run: executed=%d skipped=%d remaining=%d", res2.Executed, res2.Skipped, res2.Remaining)
	}
	if res.Summary.TableString() != res2.Summary.TableString() {
		t.Fatalf("re-run table differs:\n%s\nvs\n%s", res.Summary.TableString(), res2.Summary.TableString())
	}
}

func TestSummaryFilesRoundTrip(t *testing.T) {
	cfg := testConfig([]string{"lb"}, []string{"rl3"}, []int64{5})
	out := t.TempDir()
	res, err := Run(cfg, Options{OutDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.WriteFiles(out); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(filepath.Join(out, SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if got.TableString() != res.Summary.TableString() {
		t.Fatalf("summary.json round trip changed the table")
	}
	table, err := os.ReadFile(filepath.Join(out, TableFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(table) != res.Summary.TableString() {
		t.Fatalf("table.txt does not match TableString")
	}
}

// TestTraditionalFaultedCellCountsGuard: a faulted traditional cell arms
// the watchdog through the same attach path as a curriculum cell, so the
// guard's counters reach the cell's event stream.
func TestTraditionalFaultedCellCountsGuard(t *testing.T) {
	cfg := testConfig([]string{"lb"}, []string{"rl3"}, []int64{1})
	cfg.Faults = []string{"grad-nan:2"}
	out := t.TempDir()
	if _, err := Run(cfg, Options{OutDir: out, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	cells := cfg.Cells()
	events, err := os.ReadFile(filepath.Join(out, CellsDir, cells[0].ID, obs.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"guard/skipped_updates"`) {
		t.Fatalf("faulted rl3 cell emitted no guard/skipped_updates:\n%s", events)
	}
}

// TestCellsEvaluateOnFullSpace: every mode is tested on the full (RL3)
// space, whatever range it trained on, so the cells of one seed pair up
// config for config. The rule-based baseline's reward depends only on the
// evaluation environments, never on the model, so an rl1 cell and a genet
// cell at one seed report the same EvalBaseline exactly when they evaluated
// on the same configurations.
func TestCellsEvaluateOnFullSpace(t *testing.T) {
	cfg := testConfig([]string{"abr"}, []string{"genet", "rl1"}, []int64{3})
	res, err := Run(cfg, Options{OutDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(res.Cells))
	}
	genet, rl1 := res.Cells[0], res.Cells[1]
	if genet.EvalBaseline != rl1.EvalBaseline {
		t.Fatalf("baseline reward differs between modes of seed 3 (genet %v, rl1 %v): the cells were evaluated on different configs",
			genet.EvalBaseline, rl1.EvalBaseline)
	}
}
