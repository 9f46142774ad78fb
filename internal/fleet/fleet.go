// Package fleet orchestrates matrices of training runs — the env × curriculum
// mode × seed (× optional fault profile) sweeps behind every table of the
// Genet paper's evaluation. A sweep is declared in one Config, expanded into
// Cells, and executed across all cores with a standard run directory per cell
// (manifest, events, span trace, checkpoint, model — the genet-train -rundir
// layout). A killed or partial sweep resumes by rescanning the cell
// directories: completed cells are loaded from their result files, curriculum
// cells with a checkpoint resume mid-training, and everything else restarts.
// Results aggregate into bootstrap-confidence-interval summaries, and a
// committed golden summary turns each cell into a machine-checkable verdict.
package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/faults"
)

// Budget bundles the per-cell training knobs every cell of a sweep shares,
// mirroring the genet-train flags of the same names.
type Budget struct {
	// Rounds is the number of curriculum rounds. With ItersPerRound and
	// Warmup it also sets traditional modes' equal budget
	// (core.Options.TraditionalIters), keeping Genet-vs-RL comparisons fair.
	Rounds        int `json:"rounds"`
	ItersPerRound int `json:"iters"`
	BOSteps       int `json:"bo_steps"`
	EnvsPerEval   int `json:"envs_per_eval"`
	// EnvsPerIter/StepsPerIter size each training iteration; 0 keeps the
	// harness default.
	EnvsPerIter  int `json:"envs_per_iter,omitempty"`
	StepsPerIter int `json:"steps_per_iter,omitempty"`
	// Warmup is the uniform-distribution warm-up before the first
	// promotion: 0 = harness default, negative = none, positive = that many
	// iterations.
	Warmup int `json:"warmup,omitempty"`
}

func (b *Budget) defaults() {
	if b.Rounds <= 0 {
		b.Rounds = 3
	}
	if b.ItersPerRound <= 0 {
		b.ItersPerRound = 4
	}
	if b.BOSteps <= 0 {
		b.BOSteps = 4
	}
	if b.EnvsPerEval <= 0 {
		b.EnvsPerEval = 2
	}
}

// Config declares a sweep: the cross product of environments, curriculum
// modes, seeds, and fault profiles, plus the shared per-cell budget and the
// aggregation parameters. It round-trips through JSON so a sweep is one
// reviewable file.
type Config struct {
	// Envs are use cases: abr, cc, lb.
	Envs []string `json:"envs"`
	// Modes are training strategies: genet, rl1, rl2, rl3, cl2, cl3.
	Modes []string `json:"modes"`
	// Seeds are the per-cell training seeds; statistics aggregate over them.
	Seeds []int64 `json:"seeds"`
	// Faults are optional deterministic fault-injection specs in the
	// genet-train -inject syntax ("grad-nan:2,bo-query:4"); the empty string
	// is the fault-free profile. Empty list = fault-free only.
	Faults []string `json:"faults,omitempty"`
	Budget Budget   `json:"budget"`
	// EvalEnvs is the number of paired evaluation environments each cell's
	// final model is tested on (default 4).
	EvalEnvs int `json:"eval_envs,omitempty"`
	// Resamples and Confidence parameterize the bootstrap CIs of the
	// aggregate summary (defaults 1000 and 0.95).
	Resamples  int     `json:"resamples,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// knownModes gates Validate; it mirrors genet-train.
var knownModes = map[string]bool{"genet": true, "rl1": true, "rl2": true, "rl3": true, "cl2": true, "cl3": true}

// curriculumMode reports whether a mode has checkpoint safe points (and so
// can resume mid-training). Traditional modes restart their cell from
// scratch when interrupted — the cell, not the iteration, is their resume
// granularity.
func curriculumMode(mode string) bool {
	switch mode {
	case "genet", "cl2", "cl3":
		return true
	}
	return false
}

// Validate normalizes (lower-cases, defaults) and checks the declaration.
func (c *Config) Validate() error {
	if len(c.Envs) == 0 {
		return fmt.Errorf("fleet: config declares no envs")
	}
	if len(c.Modes) == 0 {
		return fmt.Errorf("fleet: config declares no modes")
	}
	if len(c.Seeds) == 0 {
		return fmt.Errorf("fleet: config declares no seeds")
	}
	for i, e := range c.Envs {
		uc, err := core.LookupUseCase(strings.TrimSpace(e))
		if err != nil {
			return fmt.Errorf("fleet: unknown env: %w", err)
		}
		c.Envs[i] = uc.Name
	}
	for i, m := range c.Modes {
		c.Modes[i] = strings.ToLower(strings.TrimSpace(m))
		if !knownModes[c.Modes[i]] {
			return fmt.Errorf("fleet: unknown mode %q (want genet|rl1|rl2|rl3|cl2|cl3)", m)
		}
	}
	if err := noDup("env", c.Envs); err != nil {
		return err
	}
	if err := noDup("mode", c.Modes); err != nil {
		return err
	}
	if err := noDup("seed", c.Seeds); err != nil {
		return err
	}
	if len(c.Faults) == 0 {
		c.Faults = []string{""}
	}
	for _, f := range c.Faults {
		if _, err := faults.ParseSpec(0, f); err != nil {
			return fmt.Errorf("fleet: bad fault profile: %w", err)
		}
	}
	// A cell ID names the run directory Run may wipe and recreate, so it
	// must be one local path element and belong to one cell only.
	ids := map[string]bool{}
	for _, cell := range c.Cells() {
		if !filepath.IsLocal(cell.ID) || strings.ContainsAny(cell.ID, `/\`) {
			return fmt.Errorf("fleet: cell id %q is not a single path element", cell.ID)
		}
		if ids[cell.ID] {
			return fmt.Errorf("fleet: duplicate cell id %q", cell.ID)
		}
		ids[cell.ID] = true
	}
	c.Budget.defaults()
	if c.EvalEnvs <= 0 {
		c.EvalEnvs = 4
	}
	if c.Resamples <= 0 {
		c.Resamples = 1000
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	return nil
}

func noDup[T comparable](what string, xs []T) error {
	seen := map[T]bool{}
	for _, x := range xs {
		if seen[x] {
			return fmt.Errorf("fleet: duplicate %s %#v", what, x)
		}
		seen[x] = true
	}
	return nil
}

// LoadConfig reads and validates a JSON sweep declaration.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// Cell is one point of the sweep matrix.
type Cell struct {
	// Index is the cell's position in the deterministic expansion order;
	// aggregation and result slices are indexed by it.
	Index int
	Env   string
	Mode  string
	Seed  int64
	Fault string
	// ID is the cell's stable identity — it names the run directory and is
	// the join key against golden summaries, so it must be a pure function
	// of (Env, Mode, Seed, Fault) and filesystem-safe.
	ID string
}

// CellID derives the stable identity of a cell. Fault specs carry ':' and
// ',' which are awkward in paths; they map to '-' and '+'.
func CellID(envName, mode string, seed int64, fault string) string {
	id := fmt.Sprintf("%s.%s.s%d", envName, mode, seed)
	if fault != "" {
		id += ".f" + sanitizeFault(fault)
	}
	return id
}

func sanitizeFault(spec string) string {
	r := strings.NewReplacer(":", "-", ",", "+", " ", "")
	return r.Replace(spec)
}

// Cells expands the validated config into its cells in deterministic order:
// env-major, then mode, then seed, then fault. The order never depends on
// execution, so cell indices are stable across declare/run/resume.
func (c *Config) Cells() []Cell {
	var cells []Cell
	for _, e := range c.Envs {
		for _, m := range c.Modes {
			for _, s := range c.Seeds {
				for _, f := range c.Faults {
					cells = append(cells, Cell{
						Index: len(cells),
						Env:   e,
						Mode:  m,
						Seed:  s,
						Fault: f,
						ID:    CellID(e, m, s, f),
					})
				}
			}
		}
	}
	return cells
}

// GroupKey is the aggregation identity of a cell: everything but the seed.
func (cell Cell) GroupKey() string {
	k := cell.Env + "/" + cell.Mode
	if cell.Fault != "" {
		k += "/" + sanitizeFault(cell.Fault)
	}
	return k
}

// ExampleConfig returns a small, fully-populated sweep declaration for
// -example output and documentation.
func ExampleConfig() *Config {
	c := &Config{
		Envs:  []string{"abr", "lb"},
		Modes: []string{"genet", "rl3"},
		Seeds: []int64{1, 2, 3},
		Budget: Budget{
			Rounds:        2,
			ItersPerRound: 2,
			BOSteps:       2,
			EnvsPerEval:   1,
			EnvsPerIter:   2,
			StepsPerIter:  50,
			Warmup:        1,
		},
		EvalEnvs:   4,
		Resamples:  1000,
		Confidence: 0.95,
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// sortedGroupKeys returns the distinct group keys of cells in expansion
// order (first occurrence wins), which keeps summary tables in the declared
// env/mode order rather than lexicographic surprise.
func sortedGroupKeys(cells []Cell) []string {
	var keys []string
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.GroupKey()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// sortInts is a tiny helper for deterministic seed listings in tables.
func sortInts(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
