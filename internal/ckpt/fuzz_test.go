package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedFile builds a small valid checkpoint for the seed corpus.
func fuzzSeedFile(t testing.TB) []byte {
	w := NewWriter()
	if err := w.Add("agent", []byte("agent-state-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddGob("trainer", struct{ Round int }{Round: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("rng", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFile exercises the header and section-table parser with
// arbitrary bytes. Read, ReadFile and ReadPool share that parser, so this
// covers every checkpoint and model.bin reader. It must never panic, never
// allocate unboundedly from attacker-controlled sizes, and on success
// return a file whose sections round-trip through a Writer byte-for-byte.
func FuzzReadFile(f *testing.F) {
	valid := fuzzSeedFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated mid-table/payload
	f.Add(valid[:9])                  // truncated header
	f.Add([]byte("GENETCKP"))         // magic only
	f.Add([]byte("NOTACKPT12345678")) // bad magic
	f.Add([]byte{})                   // empty

	// Version 0 and a future version.
	for _, v := range []uint32{0, 99} {
		c := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(c[8:12], v)
		f.Add(c)
	}
	// Absurd section count with no table behind it.
	c := append([]byte(nil), valid[:16]...)
	binary.LittleEndian.PutUint32(c[12:16], 1<<19)
	f.Add(c)
	// Flipped payload byte (CRC mismatch).
	c = append([]byte(nil), valid...)
	c[len(c)-1] ^= 0xff
	f.Add(c)
	// Huge claimed payload size in the first table entry
	// (offset: 16 header + 2 nameLen + len("agent")).
	c = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(c[16+2+5:], 1<<60)
	f.Add(c)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is the job; just don't panic
		}
		// Parsed OK: every listed section must be retrievable, and
		// re-serializing must reproduce a file with identical sections.
		w := NewWriter()
		for _, name := range file.Sections() {
			payload, err := file.Section(name)
			if err != nil {
				t.Fatalf("listed section %q not retrievable: %v", name, err)
			}
			if err := w.Add(name, payload); err != nil {
				t.Fatalf("re-add section %q: %v", name, err)
			}
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		file2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-serialized file failed: %v", err)
		}
		if len(file2.Sections()) != len(file.Sections()) {
			t.Fatalf("round trip changed section count: %d != %d",
				len(file2.Sections()), len(file.Sections()))
		}
		for _, name := range file.Sections() {
			a, _ := file.Section(name)
			b, err := file2.Section(name)
			if err != nil {
				t.Fatalf("round trip lost section %q: %v", name, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("round trip changed section %q", name)
			}
		}
	})
}
