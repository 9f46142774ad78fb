package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/stats"
)

// SummaryFile and TableFile are the sweep-level artifacts written into the
// output directory once every cell has completed.
const (
	SummaryFile = "summary.json"
	TableFile   = "table.txt"
)

// GroupSummary aggregates one (env, mode, fault) group across its seeds:
// bootstrap confidence intervals over the per-seed evaluation rewards and
// gaps-to-baseline.
type GroupSummary struct {
	Env   string `json:"env"`
	Mode  string `json:"mode"`
	Fault string `json:"fault,omitempty"`
	// Seeds lists the seeds aggregated, sorted ascending.
	Seeds []int64 `json:"seeds"`
	// Reward and Gap are bootstrap CIs for the mean over seeds.
	Reward stats.CI `json:"reward"`
	Gap    stats.CI `json:"gap"`
}

// Summary is the paper-style aggregate of a completed sweep: every cell
// result plus per-group bootstrap statistics. It is a pure function of the
// config and the (deterministic) cell results, so two runs of the same
// declaration — straight through, or killed and resumed — serialize to the
// same bytes.
type Summary struct {
	Config Config         `json:"config"`
	Cells  []CellResult   `json:"cells"`
	Groups []GroupSummary `json:"groups"`
}

// bootstrapSeedBase keeps the aggregate CIs reproducible: the resample
// stream of each group is seeded by this constant plus the group's position.
const bootstrapSeedBase = 1_000_003

// Aggregate groups completed cell results (in expansion order) into a
// Summary. Resumed flags are cleared first: provenance must not leak into a
// byte-compared artifact.
func Aggregate(cfg *Config, cells []Cell, results []CellResult) *Summary {
	byID := make(map[string]CellResult, len(results))
	for _, r := range results {
		r.Resumed = false
		byID[r.ID] = r
	}
	sum := &Summary{Config: *cfg}
	// Cells in expansion order, regardless of completion order.
	groupCells := map[string][]CellResult{}
	for _, c := range cells {
		r, ok := byID[c.ID]
		if !ok {
			continue
		}
		sum.Cells = append(sum.Cells, r)
		groupCells[c.GroupKey()] = append(groupCells[c.GroupKey()], r)
	}
	for gi, key := range sortedGroupKeys(cells) {
		rs := groupCells[key]
		if len(rs) == 0 {
			continue
		}
		g := GroupSummary{Env: rs[0].Env, Mode: rs[0].Mode, Fault: rs[0].Fault}
		var rewards, gaps []float64
		for _, r := range rs {
			g.Seeds = append(g.Seeds, r.Seed)
			rewards = append(rewards, r.EvalReward)
			gaps = append(gaps, r.Gap)
		}
		g.Seeds = sortInts(g.Seeds)
		seed := int64(bootstrapSeedBase + gi)
		g.Reward = stats.BootstrapMean(rewards, cfg.Resamples, cfg.Confidence, seed)
		g.Gap = stats.BootstrapMean(gaps, cfg.Resamples, cfg.Confidence, seed+1)
		sum.Groups = append(sum.Groups, g)
	}
	return sum
}

// WriteTable renders the paper-style aggregate table: one row per (env,
// mode, fault) group with bootstrap CIs, followed by the per-cell detail.
// The rendering uses fixed-precision floats only, so equal summaries render
// to equal bytes.
func (s *Summary) WriteTable(w io.Writer) error {
	faults := 0
	for _, f := range s.Config.Faults {
		if f != "" {
			faults++
		}
	}
	if _, err := fmt.Fprintf(w, "== fleet: %d env(s) x %d mode(s) x %d seed(s), %d fault profile(s) — %d cells ==\n",
		len(s.Config.Envs), len(s.Config.Modes), len(s.Config.Seeds), faults, len(s.Cells)); err != nil {
		return err
	}
	level := int(s.Config.Confidence*100 + 0.5)
	fmt.Fprintf(w, "%-6s %-7s %-18s %5s  %-32s %-32s\n",
		"env", "mode", "fault", "seeds",
		fmt.Sprintf("reward (mean, %d%% CI)", level),
		fmt.Sprintf("gap (mean, %d%% CI)", level))
	for _, g := range s.Groups {
		fault := g.Fault
		if fault == "" {
			fault = "-"
		}
		fmt.Fprintf(w, "%-6s %-7s %-18s %5d  %-32s %-32s\n",
			g.Env, g.Mode, fault, len(g.Seeds), g.Reward, g.Gap)
	}
	fmt.Fprintln(w, "\nper-cell:")
	for _, c := range s.Cells {
		fmt.Fprintf(w, "  %-28s reward=%.4f baseline=%.4f gap=%.4f train=%.4f rounds=%d",
			c.ID, c.EvalReward, c.EvalBaseline, c.Gap, c.FinalTrainReward, c.Rounds)
		if c.Quarantined > 0 || c.Recoveries > 0 {
			fmt.Fprintf(w, " quarantined=%d recoveries=%d", c.Quarantined, c.Recoveries)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// TableString renders WriteTable to a string.
func (s *Summary) TableString() string {
	var b strings.Builder
	s.WriteTable(&b)
	return b.String()
}

// WriteFiles persists the summary and its rendered table into the sweep's
// output directory (atomically, temp + fsync + rename).
func (s *Summary) WriteFiles(outDir string) error {
	if err := writeJSON(filepath.Join(outDir, SummaryFile), s); err != nil {
		return err
	}
	return ckpt.AtomicWriteFile(filepath.Join(outDir, TableFile), s.WriteTable)
}

// ReadSummary loads a summary.json written by WriteFiles (or committed as a
// golden).
func ReadSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// writeJSON atomically writes v as two-space-indented JSON and a newline.
func writeJSON(path string, v any) error {
	return ckpt.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
