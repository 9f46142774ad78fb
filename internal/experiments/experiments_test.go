package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner.
	want := []string{
		"fig2", "fig3", "fig4", "fig6", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig22", "table6", "table7",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
		if Describe(id) == "" {
			t.Errorf("missing description for %q", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d entries, want >= %d", len(IDs()), len(want))
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	if _, ok := Lookup("FIG9"); !ok {
		t.Fatal("uppercase lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestParseScale(t *testing.T) {
	cases := map[string]Scale{"smoke": Smoke, "ci": CI, "full": Full, "paper": Full, "SMOKE": Smoke}
	for in, want := range cases {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestScaleString(t *testing.T) {
	if Smoke.String() != "smoke" || CI.String() != "ci" || Full.String() != "full" {
		t.Fatal("scale strings")
	}
}

func TestBudgetsMonotone(t *testing.T) {
	s, c, f := budgetFor(Smoke), budgetFor(CI), budgetFor(Full)
	si, ci, fi := s.Options().TraditionalIters(), c.Options().TraditionalIters(), f.Options().TraditionalIters()
	if !(si < ci && ci < fi) {
		t.Fatalf("iteration budgets not increasing: %d, %d, %d", si, ci, fi)
	}
	if !(s.testEnvs < c.testEnvs && c.testEnvs < f.testEnvs) {
		t.Fatal("test env budgets not increasing")
	}
	if f.BOSteps != 15 || f.Rounds != 9 || f.EnvsPerEval != 10 {
		t.Fatalf("full budget does not match Algorithm 2 defaults: %+v", f)
	}
}

func TestResultTableFormatting(t *testing.T) {
	res := &Result{
		ID: "x", Title: "t", Columns: []string{"a", "b"},
	}
	res.AddRow("row1", 1.5, math.NaN())
	res.AddRow("row2", 2)
	res.Note("hello %d", 7)
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: t ==", "row1", "row2", "1.500", "hello 7", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestResultGet(t *testing.T) {
	res := &Result{Columns: []string{"a", "b"}}
	res.AddRow("r", 1, 2)
	if res.Get("r", "b") != 2 {
		t.Fatalf("Get = %v", res.Get("r", "b"))
	}
	if !math.IsNaN(res.Get("r", "z")) || !math.IsNaN(res.Get("q", "a")) {
		t.Fatal("missing lookups should be NaN")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register("fig9", "dup", nil)
}

// Smoke-run the cheapest experiments end to end; the full set is covered by
// the repository-level benchmarks.
func TestRunFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := runFig4(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (pretrained, +X, +Y)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Values) != 2 {
			t.Fatalf("row %q has %d values", row.Label, len(row.Values))
		}
	}
}

func TestRunFig20Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := runFig20(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 use cases x 3 searchers.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	// Running-best values within a row must be monotone over checkpoints.
	for _, row := range res.Rows {
		for i := 1; i < len(row.Values); i++ {
			if strings.HasSuffix(row.Label, "-bo") && i >= 2 {
				continue // BO stops at 15 evals; later columns repeat its final best
			}
			if row.Values[i] < row.Values[i-1]-1e-9 {
				t.Fatalf("%s best-so-far decreased: %v", row.Label, row.Values)
			}
		}
	}
}

func TestRunFig16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := runFig16(Smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 5 ABR paths x 3 policies + 3 CC paths x 3 policies.
	if len(res.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(res.Rows))
	}
}

func TestResultWriteCSV(t *testing.T) {
	res := &Result{ID: "x", Columns: []string{"a", "b"}}
	res.AddRow("r1", 1.25, math.NaN())
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "experiment,series,a,b") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, "x,r1,1.25,") {
		t.Fatalf("missing row / NaN handling: %s", out)
	}
}
