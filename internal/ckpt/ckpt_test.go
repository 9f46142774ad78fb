package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	if err := w.Add("alpha", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("beta", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.AddGob("gamma", []float64{1.5, -2.25}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Version() != FormatVersion {
		t.Fatalf("version = %d, want %d", f.Version(), FormatVersion)
	}
	if got := f.Sections(); len(got) != 3 || got[0] != "alpha" || got[1] != "beta" || got[2] != "gamma" {
		t.Fatalf("sections = %v", got)
	}
	p, err := f.Section("alpha")
	if err != nil || string(p) != "hello" {
		t.Fatalf("alpha = %q, %v", p, err)
	}
	if p, err := f.Section("beta"); err != nil || len(p) != 0 {
		t.Fatalf("beta = %q, %v", p, err)
	}
	var fs []float64
	if err := f.Gob("gamma", &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0] != 1.5 || fs[1] != -2.25 {
		t.Fatalf("gamma = %v", fs)
	}
}

func TestAddReplacesSection(t *testing.T) {
	w := NewWriter()
	if err := w.Add("s", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("s", []byte("two")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := f.Section("s"); string(p) != "two" {
		t.Fatalf("section = %q, want %q", p, "two")
	}
}

func TestRejectsEmptySectionName(t *testing.T) {
	if err := NewWriter().Add("", []byte("x")); err == nil {
		t.Fatal("empty section name accepted")
	}
}

func TestMissingSectionError(t *testing.T) {
	w := NewWriter()
	_ = w.Add("present", []byte("x"))
	var buf bytes.Buffer
	_, _ = w.WriteTo(&buf)
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Section("absent"); err == nil {
		t.Fatal("missing section returned no error")
	}
}

func TestRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTACKPT\x00\x00\x00\x00\x00\x00\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	} else if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("error %q does not mention magic", err)
	}
}

func TestRejectsFutureVersion(t *testing.T) {
	w := NewWriter()
	_ = w.Add("s", []byte("x"))
	var buf bytes.Buffer
	_, _ = w.WriteTo(&buf)
	data := buf.Bytes()
	data[8] = 99 // bump the version field
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestTornFileDetected truncates a checkpoint at every possible byte length
// and requires each prefix to fail loudly: a crash mid-write (without the
// atomic rename) must never produce a stream that parses as complete.
func TestTornFileDetected(t *testing.T) {
	w := NewWriter()
	_ = w.Add("agent", bytes.Repeat([]byte{7}, 64))
	_ = w.Add("rng", []byte("0123456789"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes parsed as a complete checkpoint", cut, len(full))
		}
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	w := NewWriter()
	_ = w.Add("agent", bytes.Repeat([]byte{7}, 64))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xFF // flip a payload bit
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt payload accepted")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("error %q does not mention CRC", err)
	}
}

func TestWriteFileAtomicAndClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	w := NewWriter()
	_ = w.Add("s", []byte("payload"))
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite to exercise the rename-over-existing path.
	_ = w.Add("s", []byte("payload2"))
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := f.Section("s"); string(p) != "payload2" {
		t.Fatalf("section = %q", p)
	}
	// No temp files may remain after successful writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "run.ckpt" {
			t.Fatalf("stray file %q left behind", e.Name())
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRandRestoreReplaysStream drives a Rand through a mix of draw methods,
// snapshots it at an arbitrary point, and requires the restored Rand to
// produce the exact same continuation as the original.
func TestRandRestoreReplaysStream(t *testing.T) {
	r := NewRand(42)
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			r.Float64()
		case 1:
			r.Int63()
		case 2:
			r.NormFloat64()
		case 3:
			r.Intn(17)
		case 4:
			r.Shuffle(7, func(a, b int) {})
		}
	}
	st := r.State()
	restored := RestoreRand(st)
	if restored.State() != st {
		t.Fatalf("restored state %v != %v", restored.State(), st)
	}
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), restored.Float64(); a != b {
			t.Fatalf("draw %d: %v != %v", i, a, b)
		}
		if a, b := r.NormFloat64(), restored.NormFloat64(); a != b {
			t.Fatalf("norm draw %d: %v != %v", i, a, b)
		}
	}
}

// TestRandMatchesStdlib pins the wrapper to the standard stream: counting
// must never perturb the values drawn.
func TestRandMatchesStdlib(t *testing.T) {
	a := NewRand(7)
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
	if got := a.State(); got.Seed != 7 || got.Count == 0 {
		t.Fatalf("state = %+v", got)
	}
}

func TestSourceSeedResetsCount(t *testing.T) {
	s := NewSource(1)
	s.Uint64()
	s.Uint64()
	if s.State().Count != 2 {
		t.Fatalf("count = %d, want 2", s.State().Count)
	}
	s.Seed(9)
	if st := s.State(); st.Seed != 9 || st.Count != 0 {
		t.Fatalf("state after Seed = %+v", st)
	}
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	// A real checkpoint plus two stranded temps (what an interrupted
	// WriteFile leaves behind) and one unrelated file.
	w := NewWriter()
	if err := w.Add("s", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run.ckpt.tmp-123", "run.ckpt.tmp-zzz"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "other.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := RemoveStaleTemps(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d temps, want 2", n)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("directory holds %v, want checkpoint + other.txt", left)
	}
	// The checkpoint itself must survive and stay readable.
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("checkpoint damaged by temp sweep: %v", err)
	}
	// Idempotent on a clean directory.
	if n, err := RemoveStaleTemps(path); err != nil || n != 0 {
		t.Fatalf("second sweep: n=%d err=%v", n, err)
	}
}

func TestReadRejectsHugeClaimedPayloadWithoutAllocating(t *testing.T) {
	// A header claiming a 2^60-byte section with no bytes behind it must
	// fail as a truncation, not attempt the allocation.
	w := NewWriter()
	if err := w.Add("agent", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Offset of payloadLen: 16-byte header + 2-byte nameLen + "agent".
	binary.LittleEndian.PutUint64(data[16+2+5:], 1<<60)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt size accepted")
	}
}

// TestAtomicWriteFile covers the generic atomic-write helper every artifact
// writer (models, checkpoints, manifests, traces, fleet results) shares:
// content lands whole and 0644, overwrites replace atomically, a failing
// producer leaves the previous file untouched and no temp behind, and temps
// match the RemoveStaleTemps pattern.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	wantMode := func(when string) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := st.Mode().Perm(); m != 0o644 {
			t.Fatalf("%s: mode = %v, want 0644", when, m)
		}
	}

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("model-v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "model-v1" {
		t.Fatalf("content = %q", got)
	}
	wantMode("write")

	// Overwrite replaces the whole file.
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("model-v2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "model-v2" {
		t.Fatalf("content after overwrite = %q", got)
	}
	wantMode("overwrite")

	// A failing producer must not disturb the existing file and must not
	// strand its temp.
	wantErr := errors.New("producer failed")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("torn"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, wantErr)
	}
	if got, _ := os.ReadFile(path); string(got) != "model-v2" {
		t.Fatalf("failed write disturbed file: %q", got)
	}
	wantMode("failed write")
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		if e.Name() != "model.bin" {
			t.Fatalf("stray file %q left behind", e.Name())
		}
	}
}
