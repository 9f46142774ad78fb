package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadConfig feeds arbitrary bytes to LoadConfig. It must never panic,
// and a config it accepts must expand into cells whose IDs are unique,
// single local path elements: Run wipes and recreates each cell's
// directory under the sweep's output directory.
func FuzzLoadConfig(f *testing.F) {
	example, err := json.Marshal(ExampleConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(example), "", "null", "[]", "{}", `{"envs":["abr"]}`,
		`{"envs":["ABR"," lb"],"modes":["Genet","rl1"],"seeds":[1,2],"faults":["","all:3","grad-nan:2, env-step:5"]}`,
		`{"envs":["abr"],"modes":["genet"],"seeds":[1],"faults":["grad-nan:2/../../../victim"]}`,
		`{"envs":["abr"],"modes":["genet"],"seeds":[1],"faults":["grad-nan:2"," grad-nan:2"]}`,
		`{"envs":["abr"],"modes":["genet"],"seeds":[1],"faults":["grad-nan:2\\..\\x"]}`,
		`{"envs":["cc"],"modes":["rl3"],"seeds":[-1,9223372036854775807],"budget":{"rounds":-1},"confidence":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadConfig(path)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, cell := range c.Cells() {
			if !filepath.IsLocal(cell.ID) || strings.ContainsAny(cell.ID, `/\`) || filepath.Base(cell.ID) != cell.ID {
				t.Fatalf("accepted cell id %q is not a single local path element", cell.ID)
			}
			if seen[cell.ID] {
				t.Fatalf("accepted config has duplicate cell id %q", cell.ID)
			}
			seen[cell.ID] = true
		}
	})
}
