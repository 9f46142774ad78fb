package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/genet-go/genet/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

const smokeGoldenPath = "testdata/golden_smoke.json"

// smokeGolden pins every experiment's output at Smoke scale and seed 1.
// Values are strings at full precision, so a last-bit drift shows. Kernel
// records which numeric path produced them: the scalar and AVX2 kernels are
// each deterministic but differ from each other.
type smokeGolden struct {
	Kernel      string             `json:"kernel"`
	Experiments []goldenExperiment `json:"experiments"`
}

type goldenExperiment struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Columns []string    `json:"columns"`
	Rows    []goldenRow `json:"rows"`
	Notes   []string    `json:"notes"`
}

type goldenRow struct {
	Label  string   `json:"label"`
	Values []string `json:"values"`
}

func goldenOf(res *Result) goldenExperiment {
	g := goldenExperiment{ID: res.ID, Title: res.Title, Columns: res.Columns, Notes: res.Notes}
	for _, row := range res.Rows {
		vals := make([]string, len(row.Values))
		for i, v := range row.Values {
			vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		g.Rows = append(g.Rows, goldenRow{Label: row.Label, Values: vals})
	}
	return g
}

// TestExperimentsSmokeGolden runs every registered experiment at Smoke
// scale with seed 1 and compares the full result against the committed
// golden. A refactor of the runners must leave it byte-identical; a
// deliberate change to a figure refreshes it with
//
//	go test ./internal/experiments/ -run TestExperimentsSmokeGolden -update
func TestExperimentsSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var want smokeGolden
	if !*updateGolden {
		data, err := os.ReadFile(smokeGoldenPath)
		if err != nil {
			t.Fatalf("missing golden file (generate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt golden file %s: %v", smokeGoldenPath, err)
		}
		if want.Kernel != nn.KernelName() {
			t.Skipf("golden recorded on %q kernels, this machine runs %q", want.Kernel, nn.KernelName())
		}
	}
	got := smokeGolden{Kernel: nn.KernelName()}
	for _, id := range IDs() {
		res, err := Run(id, Smoke, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.Experiments = append(got.Experiments, goldenOf(res))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(smokeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(smokeGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", smokeGoldenPath)
		return
	}
	if len(got.Experiments) != len(want.Experiments) {
		t.Errorf("%d experiments, golden has %d", len(got.Experiments), len(want.Experiments))
	}
	for i := range min(len(got.Experiments), len(want.Experiments)) {
		g, w := got.Experiments[i], want.Experiments[i]
		if g.ID != w.ID {
			t.Fatalf("experiment %d is %q, golden has %q", i, g.ID, w.ID)
		}
		if g.Title != w.Title || !reflect.DeepEqual(g.Columns, w.Columns) || !reflect.DeepEqual(g.Notes, w.Notes) {
			t.Errorf("%s: title/columns/notes differ:\ngot  %q %q %q\nwant %q %q %q",
				g.ID, g.Title, g.Columns, g.Notes, w.Title, w.Columns, w.Notes)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Errorf("%s: %d rows, golden has %d", g.ID, len(g.Rows), len(w.Rows))
			continue
		}
		for j := range g.Rows {
			if !reflect.DeepEqual(g.Rows[j], w.Rows[j]) {
				t.Errorf("%s: row %d = %s %v, golden %s %v", g.ID, j, g.Rows[j].Label, g.Rows[j].Values, w.Rows[j].Label, w.Rows[j].Values)
			}
		}
	}
}
