// Package ckpt implements the crash-safe checkpoint container used by the
// curriculum trainer: a versioned, self-describing binary format holding
// named sections (agent state, trainer position, BO history, RNG state),
// written atomically so an interrupted run never leaves a torn file behind.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "GENETCKP"
//	version  uint32   format version (currently 1)
//	count    uint32   number of sections
//	table    count ×  { nameLen uint16, name []byte, payloadLen uint64, crc32 uint32 }
//	payloads          section payloads concatenated in table order
//
// The section table is self-describing: readers can enumerate sections
// without knowing their meaning, unknown sections are skipped, and every
// payload carries an IEEE CRC-32 so truncated or corrupted files fail with a
// clear error instead of deserializing garbage. Files are written to a
// temporary sibling and atomically renamed into place, so a crash mid-write
// leaves either the previous checkpoint or none — never a partial one.
//
// The same container is the model.bin format: internal/rl writes a model
// as a container with one "policy" section. Read, ReadFile and ReadPool
// all load the bytes into memory and share one parser, so every reader of
// a checkpoint or a model gets the same checks.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// FormatVersion is the current container format version.
const FormatVersion = 1

// Magic is the 8-byte prefix of every container.
const Magic = "GENETCKP"

// ErrNotContainer reports a stream that does not start with Magic.
var ErrNotContainer = errors.New("ckpt: not a checkpoint container")

// maxSectionName bounds section-name length in the wire format (uint16).
const maxSectionName = 1 << 16

// maxSections bounds the table size a reader will accept, rejecting
// obviously corrupt headers before allocating.
const maxSections = 1 << 20

type section struct {
	name    string
	payload []byte
}

// Writer accumulates named sections and serializes them as one checkpoint.
type Writer struct {
	sections []section
	index    map[string]int
}

// NewWriter returns an empty checkpoint writer.
func NewWriter() *Writer {
	return &Writer{index: make(map[string]int)}
}

// Add appends (or replaces) a named section. The payload is aliased, not
// copied; callers must not mutate it before the checkpoint is written.
func (w *Writer) Add(name string, payload []byte) error {
	if name == "" {
		return errors.New("ckpt: empty section name")
	}
	if len(name) >= maxSectionName {
		return fmt.Errorf("ckpt: section name %q too long", name[:32]+"...")
	}
	if i, ok := w.index[name]; ok {
		w.sections[i].payload = payload
		return nil
	}
	w.index[name] = len(w.sections)
	w.sections = append(w.sections, section{name: name, payload: payload})
	return nil
}

// AddGob gob-encodes v into a new section.
func (w *Writer) AddGob(name string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("ckpt: encode section %q: %w", name, err)
	}
	return w.Add(name, buf.Bytes())
}

// WriteTo serializes the checkpoint. It implements io.WriterTo.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var head bytes.Buffer
	head.WriteString(Magic)
	le := binary.LittleEndian
	var u32 [4]byte
	le.PutUint32(u32[:], FormatVersion)
	head.Write(u32[:])
	le.PutUint32(u32[:], uint32(len(w.sections)))
	head.Write(u32[:])
	for _, s := range w.sections {
		var u16 [2]byte
		le.PutUint16(u16[:], uint16(len(s.name)))
		head.Write(u16[:])
		head.WriteString(s.name)
		var u64 [8]byte
		le.PutUint64(u64[:], uint64(len(s.payload)))
		head.Write(u64[:])
		le.PutUint32(u32[:], crc32.ChecksumIEEE(s.payload))
		head.Write(u32[:])
	}
	n, err := out.Write(head.Bytes())
	total := int64(n)
	if err != nil {
		return total, err
	}
	for _, s := range w.sections {
		n, err := out.Write(s.payload)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteFile atomically persists the checkpoint at path: the bytes are
// written to a temporary file in the same directory, synced, and renamed
// over path. Readers concurrently opening path see either the old complete
// checkpoint or the new one, never a torn mix.
func (w *Writer) WriteFile(path string) error {
	return AtomicWriteFile(path, func(out io.Writer) error {
		_, err := w.WriteTo(out)
		return err
	})
}

// AtomicWriteFile writes a file produced by write with the same
// temp+fsync+rename discipline WriteFile uses for checkpoints: the payload
// lands in a temporary sibling (matching the ".tmp-*" pattern
// RemoveStaleTemps sweeps), is synced, and is renamed over path. A reader —
// in particular a model-watching policy server — concurrently opening path
// sees either the previous complete file or the new one, never a torn mix.
// The file is left 0644: models, checkpoints, manifests and traces are
// shareable artifacts. Any error removes the temp file and leaves path
// untouched.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	// CreateTemp makes the file 0600.
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: chmod %s: %w", tmpName, err)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename into place: %w", err)
	}
	return nil
}

// File is a parsed checkpoint: an ordered set of named, CRC-verified
// sections.
type File struct {
	version  uint32
	names    []string
	sections map[string][]byte
}

// Version returns the container format version the file was written with.
func (f *File) Version() uint32 { return f.version }

// Sections returns the section names in file order.
func (f *File) Sections() []string { return append([]string(nil), f.names...) }

// Has reports whether a named section exists.
func (f *File) Has(name string) bool {
	_, ok := f.sections[name]
	return ok
}

// Section returns a named section's payload.
func (f *File) Section(name string) ([]byte, error) {
	p, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("ckpt: no section %q (have %v)", name, f.names)
	}
	return p, nil
}

// Gob decodes a named section into v.
func (f *File) Gob(name string, v any) error {
	p, err := f.Section(name)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(v); err != nil {
		return fmt.Errorf("ckpt: decode section %q: %w", name, err)
	}
	return nil
}

// Read parses a checkpoint stream, verifying the magic, version, and every
// section CRC. The stream is read to its end first, so memory grows only
// with bytes that actually arrive: a corrupt header claiming an enormous
// section fails as a truncation instead of attempting the allocation.
// Truncated streams fail with a wrapped io.ErrUnexpectedEOF.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	f := &File{}
	if err := parseData(f, data, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile parses the checkpoint at path. Section payloads alias the file
// buffer (read once, never copied); the buffer is owned by the returned File.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	f := &File{}
	if err := parseData(f, data, nil); err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return f, nil
}

// ReadPool amortizes repeated checkpoint reads (rollback probes, resume
// loops, health-guard scans) to near-zero steady-state allocations: the file
// bytes land in one reused buffer, section payloads alias that buffer
// instead of being copied, section names are interned, and the returned File
// is reused. A File returned by a pool's ReadFile is valid only until the
// pool's next ReadFile call; callers needing longer-lived sections must copy
// them (or use the package-level ReadFile).
type ReadPool struct {
	buf   []byte
	file  File
	names map[string]string
}

// NewReadPool returns an empty pool.
func NewReadPool() *ReadPool {
	return &ReadPool{names: make(map[string]string)}
}

// ReadFile parses the checkpoint at path into the pool's reused buffers.
func (p *ReadPool) ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	size := int(st.Size())
	if cap(p.buf) < size {
		p.buf = make([]byte, size)
	}
	p.buf = p.buf[:size]
	if _, err := io.ReadFull(f, p.buf); err != nil {
		return nil, fmt.Errorf("ckpt: read %s: %w", path, noEOF(err))
	}
	if err := parseData(&p.file, p.buf, p.names); err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return &p.file, nil
}

// parseData parses an in-memory checkpoint into f, reusing f's name list and
// section map across calls. Payloads alias data. When intern is non-nil,
// section-name strings are reused across calls through it.
func parseData(f *File, data []byte, intern map[string]string) error {
	if len(data) < 16 {
		return fmt.Errorf("ckpt: read header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:8]) != Magic {
		return fmt.Errorf("%w (bad magic %q)", ErrNotContainer, data[:8])
	}
	le := binary.LittleEndian
	version := le.Uint32(data[8:12])
	if version == 0 || version > FormatVersion {
		return fmt.Errorf("ckpt: unsupported format version %d (this build reads <= %d)", version, FormatVersion)
	}
	count := le.Uint32(data[12:16])
	if count > maxSections {
		return fmt.Errorf("ckpt: corrupt header: %d sections", count)
	}
	f.version = version
	f.names = f.names[:0]
	if f.sections == nil {
		f.sections = make(map[string][]byte, count)
	} else {
		clear(f.sections)
	}
	// First pass: walk the table, recording name and payload extents.
	off := 16
	type extent struct {
		nameLo, nameHi int
		size           uint64
		crc            uint32
	}
	// The table is tiny (a few sections); a fixed on-stack prefix covers the
	// common case without allocating.
	var extBuf [8]extent
	exts := extBuf[:0]
	for i := uint32(0); i < count; i++ {
		if off+2 > len(data) {
			return fmt.Errorf("ckpt: read section table: %w", io.ErrUnexpectedEOF)
		}
		nameLen := int(le.Uint16(data[off : off+2]))
		off += 2
		if off+nameLen+12 > len(data) {
			return fmt.Errorf("ckpt: read section table: %w", io.ErrUnexpectedEOF)
		}
		e := extent{nameLo: off, nameHi: off + nameLen}
		off += nameLen
		e.size = le.Uint64(data[off : off+8])
		e.crc = le.Uint32(data[off+8 : off+12])
		off += 12
		exts = append(exts, e)
	}
	// Second pass: slice payloads out of data and verify CRCs.
	for _, e := range exts {
		if e.size > uint64(len(data)-off) {
			name := string(data[e.nameLo:e.nameHi])
			return fmt.Errorf("ckpt: section %q truncated: %w", name, io.ErrUnexpectedEOF)
		}
		payload := data[off : off+int(e.size) : off+int(e.size)]
		off += int(e.size)
		nameBytes := data[e.nameLo:e.nameHi]
		var name string
		if intern != nil {
			var ok bool
			if name, ok = intern[string(nameBytes)]; !ok {
				name = string(nameBytes)
				intern[name] = name
			}
		} else {
			name = string(nameBytes)
		}
		if got := crc32.ChecksumIEEE(payload); got != e.crc {
			return fmt.Errorf("ckpt: section %q CRC mismatch (file corrupt)", name)
		}
		if _, dup := f.sections[name]; dup {
			return fmt.Errorf("ckpt: duplicate section %q", name)
		}
		f.names = append(f.names, name)
		f.sections[name] = payload
	}
	return nil
}

// RemoveStaleTemps deletes leftover "<base>.tmp-*" siblings of the
// checkpoint at path — debris a WriteFile can strand if the process dies
// between creating the temporary file and renaming it into place (e.g. a
// second SIGINT mid-write). It returns how many files were removed.
// Callers run it at startup, before writing to path.
func RemoveStaleTemps(path string) (int, error) {
	pattern := filepath.Join(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return 0, fmt.Errorf("ckpt: scan stale temps: %w", err)
	}
	removed := 0
	for _, m := range matches {
		if err := os.Remove(m); err == nil {
			removed++
		}
	}
	return removed, nil
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a fixed-layout
// container every early EOF is a truncation.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
