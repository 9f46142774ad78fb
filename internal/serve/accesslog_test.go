package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/genet-go/genet/internal/obs"
)

func TestAccessLogConcurrentWrites(t *testing.T) {
	// Small byte bound so rotation happens constantly under contention; the
	// -race run plus the whole-line decode in ReadAccessLog together assert
	// that no line is ever torn across goroutines or across a rotation.
	path := filepath.Join(t.TempDir(), "access.jsonl")
	log, err := OpenAccessLog(path, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := AccessRecord{
					TS:      float64(i),
					Trace:   obs.NewTraceID(uint64(w), uint64(i)),
					Outcome: OutcomeOK,
					UseCase: "abr",
					Version: uint64(w),
					LatSec:  0.001,
					Err:     strings.Repeat("x", i%40), // vary line length
				}
				if err := log.Write(rec); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := log.Lines(); got != writers*perWriter {
		t.Fatalf("Lines() = %d, want %d", got, writers*perWriter)
	}
	recs, err := ReadAccessLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("read %d records, want %d", len(recs), writers*perWriter)
	}
	// Every minted trace must come back exactly once.
	seen := map[obs.TraceID]int{}
	for _, r := range recs {
		seen[r.Trace]++
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := obs.NewTraceID(uint64(w), uint64(i))
			if seen[id] != 1 {
				t.Fatalf("trace %v appeared %d times", id, seen[id])
			}
		}
	}
}

func TestAccessLogRotationBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	log, err := OpenAccessLog(path, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := log.Write(AccessRecord{TS: float64(i), Outcome: OutcomeShed}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Exact boundary: every file must parse line-by-line with no partial
	// trailing record, and no file may exceed the byte bound.
	for _, p := range []string{path, path + ".1", path + ".2"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("expected rotated file %s: %v", p, err)
		}
		if len(data) > 256 {
			t.Fatalf("%s is %d bytes, exceeds bound", p, len(data))
		}
		if len(data) > 0 && data[len(data)-1] != '\n' {
			t.Fatalf("%s ends mid-line", p)
		}
	}
	// Retention dropped the oldest files; the survivors read oldest-first
	// with strictly increasing timestamps.
	recs, err := ReadAccessLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 40 {
		t.Fatalf("retention kept %d of 40 records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TS <= recs[i-1].TS {
			t.Fatalf("records out of order at %d: %v then %v", i, recs[i-1].TS, recs[i].TS)
		}
	}
	if recs[len(recs)-1].TS != 39 {
		t.Fatalf("latest record lost: last TS = %v", recs[len(recs)-1].TS)
	}
}

// TestAccessLogLongLines writes enough lines to fill the log's 64 KiB file
// buffer many times over, with some lines past Write's 256-byte stack array
// and one past the whole buffer, and reads every record back intact.
func TestAccessLogLongLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	log, err := OpenAccessLog(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []AccessRecord
	for i := 0; i < 3000; i++ {
		rec := AccessRecord{TS: float64(i), Trace: obs.NewTraceID(1, uint64(i)), Outcome: OutcomeError, UseCase: "abr", LatSec: 0.001}
		switch {
		case i == 1500:
			rec.Err = strings.Repeat("y", 100<<10)
		case i%7 == 0:
			rec.Err = strings.Repeat("x", 300)
		}
		if err := log.Write(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAccessLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d records, not the %d written", len(got), len(want))
	}
}

func TestAccessLogClosedWriteFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	log, err := OpenAccessLog(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Write(AccessRecord{}); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := log.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestReadAccessLogRejectsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.jsonl")
	torn := `{"ts":1,"trace":"0000000000001","outcome":"ok"}` + "\n" + `{"ts":2,"outc`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAccessLog(path); err == nil {
		t.Fatal("torn line accepted")
	} else if !strings.Contains(err.Error(), "torn or malformed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// FuzzAccessRecord holds appendAccessRecord to json.Marshal byte for byte
// over arbitrary field values (floats at the 'f'/'e' cut-offs and
// non-finite, traces wider than TraceIDBits, strings with control bytes,
// HTML metacharacters, U+2028/U+2029 and invalid UTF-8), and checks that a
// record written through AccessLog reads back as json.Unmarshal decodes
// the Marshal output.
func FuzzAccessRecord(f *testing.F) {
	f.Add(1.5, uint64(12345), OutcomeOK, "abr", uint64(3), 0.002, 0, "")
	f.Add(0.0, uint64(0), OutcomeError, "cc", uint64(0), -0.0, -2, "serve: <bad> & \"worse\"\n\t\x01\x7f")
	f.Add(1e-7, uint64(1)<<52, "\u2028\u2029", "\xff\xfe", uint64(math.MaxUint64), 1e21, 7, "caf\xc3")
	f.Add(9.999999e-7, uint64(0xfffffffffffff), "é✓", "\b\f\r", uint64(1), 1e20, 1, "\x00")
	f.Add(5e-324, uint64(math.MaxUint64), "", "", uint64(2), math.MaxFloat64, 0, "x")
	f.Add(math.NaN(), uint64(1), OutcomeOK, "abr", uint64(1), 1.0, 0, "")
	f.Add(1.0, uint64(1), OutcomeOK, "abr", uint64(1), math.Inf(-1), 0, "")
	f.Fuzz(func(t *testing.T, ts float64, trace uint64, outcome, usecase string, ver uint64, lat float64, attempt int, errStr string) {
		rec := AccessRecord{TS: ts, Trace: obs.TraceID(trace), Outcome: outcome, UseCase: usecase,
			Version: ver, LatSec: lat, Attempt: attempt, Err: errStr}
		want, werr := json.Marshal(rec)
		got, gerr := appendAccessRecord([]byte("prefix"), &rec)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%+v: json.Marshal error %v, appendAccessRecord error %v", rec, werr, gerr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("%+v:\nappendAccessRecord %s\njson.Marshal       prefix%s", rec, got, want)
		}
		if trace>>obs.TraceIDBits != 0 {
			return // a wider ID encodes, but ReadAccessLog rejects it
		}
		var back AccessRecord
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "access.jsonl")
		log, err := OpenAccessLog(path, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAccessLog(path)
		if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0], back) {
			t.Fatalf("%+v: read back %+v (%v), want %+v", rec, recs, err, back)
		}
	})
}

// TestAppendAccessRecordMatchesMarshal is FuzzAccessRecord's encoding check
// over many seeded random records, drawn to hit every escaping and float
// formatting branch.
func TestAppendAccessRecordMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", " ", "<", ">", "&", "\"", "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
		"é", "✓", "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "😀"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return math.Pow(10, 40*rng.Float64()-20) * (2*rng.Float64() - 1)
		default:
			return rng.ExpFloat64() * 1e-3
		}
	}
	var buf []byte
	for i := 0; i < 20000; i++ {
		rec := AccessRecord{TS: float(), Trace: obs.TraceID(rng.Uint64() >> uint(rng.Intn(64))), Outcome: str(),
			UseCase: str(), Version: rng.Uint64() >> uint(rng.Intn(64)), LatSec: float(), Attempt: rng.Intn(5) - 1, Err: str()}
		want, werr := json.Marshal(rec)
		got, gerr := appendAccessRecord(buf[:0], &rec)
		if (werr != nil) != (gerr != nil) || !bytes.Equal(got, want) && werr == nil {
			t.Fatalf("%+v:\nappendAccessRecord %s (%v)\njson.Marshal       %s (%v)", rec, got, gerr, want, werr)
		}
		buf = got
	}
}

func BenchmarkAccessLogWrite(b *testing.B) {
	path := filepath.Join(b.TempDir(), "access.jsonl")
	log, err := OpenAccessLog(path, 1<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	rec := AccessRecord{TS: 1, Trace: 12345, Outcome: OutcomeOK, UseCase: "abr", Version: 3, LatSec: 0.002}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := log.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}
