package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/genet-go/genet/internal/obs"
)

// Outcome classes for access-log lines. Each class mirrors exactly one
// metric-counter bucket so a finished run reconciles line-for-line against
// /metrics: ok+fallback == decisions_total, fallback == fallback_decisions,
// shed == shed_total, deadline == deadline_exceeded_total, and error ==
// decide_errors_total + bad_requests_total.
const (
	OutcomeOK       = "ok"
	OutcomeShed     = "shed"
	OutcomeDeadline = "deadline"
	OutcomeFallback = "fallback"
	OutcomeError    = "error"
)

// AccessRecord is one access-log line: the request-granularity record that
// joins the latency histogram (via exemplars) and the span trace (via the
// trace ID) to a concrete outcome.
type AccessRecord struct {
	TS      float64     `json:"ts"` // seconds since the log was opened
	Trace   obs.TraceID `json:"trace"`
	Outcome string      `json:"outcome"`
	UseCase string      `json:"usecase"`
	Version uint64      `json:"ver"`
	LatSec  float64     `json:"lat_s"`
	Attempt int         `json:"attempt,omitempty"` // client retry index, when propagated
	Err     string      `json:"err,omitempty"`
}

// AccessLog is a bounded, rotating JSONL log. Writes are serialized so a line
// is always written whole (no torn lines under concurrency), and rotation
// happens exactly at line boundaries: a record never spans two files.
//
// Rotation shifts path -> path.1 -> ... -> path.N, dropping the oldest.
type AccessLog struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	path     string
	size     int64
	maxBytes int64
	keep     int
	lines    int64
}

const (
	defaultAccessLogMaxBytes = 64 << 20
	defaultAccessLogKeep     = 3
)

// OpenAccessLog opens (truncating) a rotating access log at path. maxBytes
// bounds each file (<=0 means the 64 MiB default); keep is how many rotated
// files to retain (<=0 means 3).
func OpenAccessLog(path string, maxBytes int64, keep int) (*AccessLog, error) {
	if maxBytes <= 0 {
		maxBytes = defaultAccessLogMaxBytes
	}
	if keep <= 0 {
		keep = defaultAccessLogKeep
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &AccessLog{
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<16),
		path:     path,
		maxBytes: maxBytes,
		keep:     keep,
	}, nil
}

// Write appends one record as a single JSONL line, rotating first if the line
// would push the current file past the byte bound. The line is encoded into
// a stack array before the lock is taken, so concurrent writers serialize
// only on the copy into the file buffer, and a write allocates nothing
// unless its line outgrows that array.
func (l *AccessLog) Write(rec AccessRecord) error {
	var arr [256]byte
	line, err := appendAccessRecord(arr[:0], &rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("serve: access log closed")
	}
	if l.size > 0 && l.size+int64(len(line)) > l.maxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	// Copy the line into bufio's own buffer and write that, so line is only
	// ever read and the stack array never escapes.
	if len(line) > l.w.Available() {
		if err := l.w.Flush(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(append(l.w.AvailableBuffer(), line...)); err != nil {
		return err
	}
	l.size += int64(len(line))
	l.lines++
	return nil
}

// appendAccessRecord appends the JSON encoding of rec to dst, byte for byte
// what json.Marshal(rec) writes (FuzzAccessRecord holds it to that): the
// same field order and omitempty fields, json's float format and its
// HTML-safe string escaping. Like json.Marshal it rejects a non-finite
// time.
func appendAccessRecord(dst []byte, rec *AccessRecord) ([]byte, error) {
	if !isFinite(rec.TS) || !isFinite(rec.LatSec) {
		return dst, fmt.Errorf("serve: access record times must be finite, got ts=%v lat_s=%v", rec.TS, rec.LatSec)
	}
	dst = append(dst, `{"ts":`...)
	dst = appendJSONFloat(dst, rec.TS)
	dst = append(dst, `,"trace":"`...)
	dst = rec.Trace.AppendHex(dst)
	dst = append(dst, `","outcome":`...)
	dst = appendJSONString(dst, rec.Outcome)
	dst = append(dst, `,"usecase":`...)
	dst = appendJSONString(dst, rec.UseCase)
	dst = append(dst, `,"ver":`...)
	dst = strconv.AppendUint(dst, rec.Version, 10)
	dst = append(dst, `,"lat_s":`...)
	dst = appendJSONFloat(dst, rec.LatSec)
	if rec.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(rec.Attempt), 10)
	}
	if rec.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, rec.Err)
	}
	return append(dst, '}'), nil
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat appends a finite f as encoding/json does: %f-style
// between 1e-6 and 1e21, exponent form outside, with e-09 shortened to e-9.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a quoted JSON string with encoding/json's
// HTML-safe escaping: control bytes, quote, backslash, <, > and & escaped,
// invalid UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// rotateLocked closes the live file and shifts the rotation chain. Caller
// holds l.mu.
func (l *AccessLog) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	// Shift path.(keep-1) -> path.keep, ..., path -> path.1. Renames of
	// missing files early in the chain are fine.
	os.Remove(rotatedPath(l.path, l.keep))
	for i := l.keep - 1; i >= 1; i-- {
		os.Rename(rotatedPath(l.path, i), rotatedPath(l.path, i+1))
	}
	if err := os.Rename(l.path, rotatedPath(l.path, 1)); err != nil {
		return err
	}
	f, err := os.Create(l.path)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.size = 0
	return nil
}

func rotatedPath(path string, i int) string {
	return fmt.Sprintf("%s.%d", path, i)
}

// Lines reports how many records have been written across all files.
func (l *AccessLog) Lines() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// Sync flushes buffered lines to the OS.
func (l *AccessLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close flushes and closes the live file. Further writes fail.
func (l *AccessLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	l.w = nil
	return err
}

// ReadAccessLog reads every record written to a rotating log, oldest first:
// the deepest rotated file through the live file. A missing rotated file is
// skipped (dropped by the retention bound); a malformed line is an error.
func ReadAccessLog(path string) ([]AccessRecord, error) {
	var recs []AccessRecord
	// Rotated files beyond keep may exist from older configs; walk down until
	// the first gap, then read in reverse (oldest first).
	var chain []string
	for i := 1; ; i++ {
		p := rotatedPath(path, i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		chain = append(chain, p)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := readAccessFile(chain[i], &recs); err != nil {
			return nil, err
		}
	}
	if err := readAccessFile(path, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

func readAccessFile(path string, out *[]AccessRecord) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec AccessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("serve: %s:%d: torn or malformed access line: %w", path, line, err)
		}
		*out = append(*out, rec)
	}
	return sc.Err()
}
