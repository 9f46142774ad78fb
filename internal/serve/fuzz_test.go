package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/rl"
)

// fuzzModel saves a fresh policy for uc, shaped by its canonical config.
func fuzzModel(t testing.TB, uc *core.UseCase, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	var err error
	if uc.Discrete != nil {
		var a *rl.DiscreteAgent
		if a, err = rl.NewDiscreteAgent(*uc.Discrete, rng); err == nil {
			err = a.Save(&buf)
		}
	} else {
		var a *rl.GaussianAgent
		if a, err = rl.NewGaussianAgent(*uc.Gaussian, rng); err == nil {
			err = a.Save(&buf)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadModel feeds ReadModel arbitrary bytes offered to each use case.
// ReadModel decodes untrusted files (a watched model path, a run
// directory), so it must never panic, and any model it accepts must have
// exactly the use case's shape and answer a decision.
func FuzzReadModel(f *testing.F) {
	index := func(name string) uint8 {
		for i, uc := range core.UseCases {
			if uc.Name == name {
				return uint8(i)
			}
		}
		f.Fatalf("no use case %q", name)
		return 0
	}
	for i, uc := range core.UseCases {
		f.Add(uint8(i), fuzzModel(f, uc, int64(i+1)))
	}
	abrModel := fuzzModel(f, core.ABR, 1)
	f.Add(index("abr"), abrModel[:len(abrModel)/2]) // truncated

	// A trainer checkpoint: a valid container without a policy section.
	w := ckpt.NewWriter()
	if err := w.Add("agent", []byte("agent-state-bytes")); err != nil {
		f.Fatal(err)
	}
	if err := w.AddGob("trainer", struct{ Round int }{Round: 3}); err != nil {
		f.Fatal(err)
	}
	var trainer bytes.Buffer
	if _, err := w.WriteTo(&trainer); err != nil {
		f.Fatal(err)
	}
	f.Add(index("abr"), trainer.Bytes())

	// The pre-container model.bin: the bare gob model value, which is
	// exactly the container's policy payload.
	file, err := ckpt.Read(bytes.NewReader(abrModel))
	if err != nil {
		f.Fatal(err)
	}
	bare, err := file.Section("policy")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(index("abr"), bare)

	f.Add(index("abr"), fuzzModel(f, core.CC, 2)) // wrong use case

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		uc := core.UseCases[int(which)%len(core.UseCases)]
		m, err := ReadModel(uc.Name, bytes.NewReader(data))
		if err != nil {
			return
		}
		wantActions, wantDim := 0, 0
		if uc.Discrete != nil {
			wantActions = uc.Discrete.NumActions
		} else {
			wantDim = uc.Gaussian.ActionDim
		}
		if m.ObsSize() != uc.ObsSize || m.NumActions() != wantActions || m.ActionDim() != wantDim {
			t.Fatalf("%s model accepted with obs=%d actions=%d dim=%d, want %d/%d/%d",
				uc.Name, m.ObsSize(), m.NumActions(), m.ActionDim(), uc.ObsSize, wantActions, wantDim)
		}
		if _, err := m.Decide(make([]float64, uc.ObsSize)); err != nil {
			t.Fatalf("accepted %s model cannot decide: %v", uc.Name, err)
		}
	})
}
